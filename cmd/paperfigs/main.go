// Command paperfigs regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints the same rows/series the
// paper reports; absolute numbers differ (different substrate and
// workloads) but the shape — who wins, by roughly what factor, where the
// crossovers fall — is the reproduction target.
//
// Table 1 and the storage accounting are closed-form; every simulated
// figure is the committed scenario spec of the same name under
// internal/scenario/specs, which `sweep -scenario NAME` also runs.
//
// Usage:
//
//	paperfigs                 # everything
//	paperfigs -exp fig6a      # one experiment
//	paperfigs -measure 300000 # longer runs than the specs'
//	paperfigs -store fs:.simcache  # reuse simulations across invocations
//	paperfigs -backend http://host:8347  # farm out to a regshared service
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// closedForm are the tables computed without simulation.
var closedForm = map[string]func() *stats.Table{
	"table1":  experiments.Table1,
	"storage": experiments.StorageTable,
}

// figures lists every table in print order: the closed-form ones, then
// the committed scenario specs by name.
var figures = []string{
	"table1", "storage", "fig4", "fig5a", "fig5b", "fig6a", "fig6b", "fig6c", "fig7",
	"ddt", "storeonly", "cwidth", "ports", "rob512", "singlebit", "disthist", "trackers",
}

func main() {
	err := run()
	if errors.Is(err, sim.ErrCanceled) {
		fmt.Fprintln(os.Stderr, "interrupted")
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp     = flag.String("exp", "all", "experiment: "+strings.Join(figures, "|")+"|all")
		warmup  = flag.Uint64("warmup", 0, "override every figure's warmup µops (explicit 0 = no warmup)")
		measure = flag.Uint64("measure", 0, "override every figure's measured µops")
	)
	rf := cliflags.RegisterRunnerFlags(flag.CommandLine)
	flag.Parse()

	if rf.PrintVersion(os.Stdout) {
		return nil
	}
	selected := figures
	if *exp != "all" {
		if !slices.Contains(figures, *exp) {
			return fmt.Errorf("unknown experiment %q (known: %s all)", *exp, strings.Join(figures, " "))
		}
		selected = []string{*exp}
	}

	// Expand every selected spec before running any, so a bad override
	// fails before the first simulation and the progress line knows the
	// whole total.
	ov := scenario.CommandOverrides(warmup, measure, "")
	matrices := make(map[string]*scenario.Matrix)
	total := 0
	for _, name := range selected {
		if closedForm[name] != nil {
			continue
		}
		spec, err := scenario.Builtin(name)
		if err != nil {
			return err
		}
		m, err := spec.Expand(ov)
		if err != nil {
			return err
		}
		matrices[name] = m
		total += len(m.Requests)
	}

	b, err := rf.Build()
	if err != nil {
		return err
	}
	defer b.Close()
	// ^C cancels the context; the running figure then returns a
	// sim.ErrCanceled wrap (completed simulations stay in -store).
	ctx := sim.SignalContext()
	runner := sim.New(b.RunnerOptions()...)
	progress := sim.NewProgress(os.Stderr, runner, total)
	start := time.Now()
	for _, name := range selected {
		table := closedForm[name]
		if table == nil {
			rep, err := matrices[name].Run(ctx, runner, progress.Observe)
			if err != nil {
				progress.Finish()
				return err
			}
			table = rep.Table
		}
		// Terminate the live progress line before each table so stdout
		// and the stderr progress line never interleave mid-draw.
		progress.Finish()
		fmt.Println(table())
	}
	c := runner.Counters()
	fmt.Fprintf(os.Stderr, "total time: %v (%d simulated, %d deduplicated, %d from disk cache)\n",
		time.Since(start).Round(time.Millisecond), c.Simulated, c.MemHits, c.DiskHits)
	return nil
}
