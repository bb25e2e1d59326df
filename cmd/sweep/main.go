// Command sweep runs declarative parameter sweeps: every grid — axes,
// configuration patches, benchmark set, run lengths, report shape —
// comes from a scenario spec (see internal/scenario and docs/SCENARIOS.md),
// either a committed builtin or a `.scenario` file.
//
// The paper's design-point sweeps remain available under their original
// -kind names, now as committed specs:
//
//   - isrb:   ISRB entries × counter width (ME+SMB, the §6.3 trade space)
//   - rob:    ROB size × ISRB entries (SMB)
//   - stlf:   store-to-load forwarding latency × SMB on/off (the §3
//     motivation: SMB gains grow with the STLF latency)
//
// All simulations go through one internal/sim runner, so shared cells —
// notably the baseline, which every grid cell compares against — run
// exactly once, and -store persists results in the sharded
// content-addressed store (fs:DIR or mem:) shared with every other
// command.
//
// Usage:
//
//	sweep -kind isrb -bench hmmer
//	sweep -kind stlf                  # geometric mean over the whole suite
//	sweep -scenario isrb-rob-grid     # any builtin scenario by name
//	sweep -spec my.scenario -json     # a spec file, machine-readable report
//	sweep -list                       # list the committed scenarios
//	sweep -store fs:.simcache         # persist results between runs
//	sweep -store fs:/shared/grid      # share one directory across a fleet
//	sweep -backend http://host:8347   # farm out to a regshared service
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// exitCanceled handles ^C uniformly: a canceled run reports
// "interrupted" and exits with the conventional SIGINT status.
func exitCanceled(err error) {
	if errors.Is(err, sim.ErrCanceled) {
		fmt.Fprintln(os.Stderr, "interrupted")
		os.Exit(130)
	}
}

func main() {
	var (
		kind     = flag.String("kind", "", "paper sweep kind: isrb|rob|stlf (shorthand for -scenario sweep-<kind>)")
		name     = flag.String("scenario", "", "builtin scenario name (see -list)")
		specPath = flag.String("spec", "", "path to a .scenario spec file")
		list     = flag.Bool("list", false, "list builtin scenarios and exit")
		bench    = flag.String("bench", "", "single benchmark or group (default: the spec's benchmark set)")
		warmup   = flag.Uint64("warmup", 0, "override the spec's warmup µops (explicit 0 = no warmup)")
		measure  = flag.Uint64("measure", 0, "override the spec's measured µops")
		jsonOut  = flag.Bool("json", false, "emit the machine-readable report instead of the table")
		verbose  = flag.Bool("v", false, "report runner counters on stderr")
	)
	rf := cliflags.RegisterRunnerFlags(flag.CommandLine)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if rf.PrintVersion(os.Stdout) {
		return
	}

	if *list {
		for _, n := range scenario.BuiltinNames() {
			s, err := scenario.Builtin(n)
			if err != nil {
				fail(err)
			}
			fmt.Printf("%-18s %s\n", n, s.Title)
		}
		return
	}

	modes := 0
	for _, set := range []bool{*specPath != "", *name != "", *kind != ""} {
		if set {
			modes++
		}
	}
	if modes > 1 {
		fail(errors.New("use only one of -kind, -scenario, -spec"))
	}

	var spec *scenario.Spec
	var err error
	switch {
	case *specPath != "":
		spec, err = scenario.LoadFile(*specPath)
	case *name != "":
		spec, err = scenario.Resolve(*name)
	case *kind != "":
		spec, err = scenario.Builtin("sweep-" + *kind)
		if errors.Is(err, scenario.ErrUnknownBuiltin) {
			err = fmt.Errorf("unknown sweep kind %q (known: isrb rob stlf)", *kind)
		}
	default:
		// Preserve the historical default: `sweep` alone runs the ISRB
		// trade-space sweep.
		spec, err = scenario.Builtin("sweep-isrb")
	}
	if err != nil {
		fail(err)
	}

	matrix, err := spec.Expand(scenario.CommandOverrides(warmup, measure, *bench))
	if err != nil {
		fail(err)
	}

	// ^C cancels the context, which aborts the in-flight simulations
	// mid-cycle-loop; completed cells are already in the store (if
	// -store is set), so a re-run resumes where this one stopped.
	ctx := sim.SignalContext()
	b, err := rf.Build()
	if err != nil {
		fail(err)
	}
	defer b.Close()
	runner := sim.New(b.RunnerOptions()...)
	progress := sim.NewProgress(os.Stderr, runner, len(matrix.Requests))
	rep, err := matrix.Run(ctx, runner, progress.Observe)
	progress.Finish()
	if err != nil {
		exitCanceled(err)
		fail(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
	} else {
		fmt.Println(rep.Table())
	}
	if *verbose {
		fmt.Fprintln(os.Stderr, progress.Summary())
	}
}
