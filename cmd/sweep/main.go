// Command sweep runs declarative parameter sweeps: every grid — axes,
// configuration patches, benchmark set, run lengths, report shape —
// comes from a scenario spec (see internal/scenario and docs/SCENARIOS.md),
// either a committed builtin or a `.scenario` file, both named by
// -scenario.
//
// The paper's design-point sweeps are committed specs:
//
//   - sweep-isrb: ISRB entries × counter width (ME+SMB, the §6.3 trade
//     space); the default
//   - sweep-rob:  ROB size × ISRB entries (SMB)
//   - sweep-stlf: store-to-load forwarding latency × SMB on/off (the §3
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
//	sweep -bench hmmer                # the ISRB sweep on one benchmark
//	sweep -scenario sweep-stlf        # geometric mean over the whole suite
//	sweep -scenario isrb-rob-grid     # any builtin scenario by name
//	sweep -scenario my.scenario -json # a spec file, machine-readable report
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
		name    = flag.String("scenario", "sweep-isrb", "builtin scenario name (see -list) or path to a .scenario spec file")
		list    = flag.Bool("list", false, "list builtin scenarios and exit")
		bench   = flag.String("bench", "", "single benchmark or group (default: the spec's benchmark set)")
		warmup  = flag.Uint64("warmup", 0, "override the spec's warmup µops (explicit 0 = no warmup)")
		measure = flag.Uint64("measure", 0, "override the spec's measured µops")
		jsonOut = flag.Bool("json", false, "emit the machine-readable report instead of the table")
		verbose = flag.Bool("v", false, "report runner counters on stderr")
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

	spec, err := scenario.Resolve(*name)
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
