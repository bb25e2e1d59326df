// Command paperfigs regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints the same rows/series the
// paper reports; absolute numbers differ (different substrate and
// workloads) but the shape — who wins, by roughly what factor, where the
// crossovers fall — is the reproduction target.
//
// The series-shaped figures (fig5a, fig6a, fig6c, fig7, ddt, storeonly,
// trackers) are committed scenario specs under internal/scenario/specs;
// -scenario runs any committed or on-disk spec directly.
//
// Usage:
//
//	paperfigs                 # everything
//	paperfigs -exp fig6a      # one experiment
//	paperfigs -scenario branch-hostile   # a committed scenario by name
//	paperfigs -scenario my.scenario      # or a spec file
//	paperfigs -measure 300000 # longer runs
//	paperfigs -store fs:.simcache  # reuse simulations across invocations
//	paperfigs -backend http://host:8347  # farm out to a regshared service
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1|fig4|fig5a|fig5b|fig6a|fig6b|fig6c|fig7|ddt|storeonly|cwidth|ports|rob512|singlebit|disthist|trackers|storage|all")
		scen    = flag.String("scenario", "", "run one scenario instead: a builtin name or a .scenario file path")
		warmup  = flag.Uint64("warmup", experiments.DefaultRunLengths.Warmup, "warmup instructions per run")
		measure = flag.Uint64("measure", experiments.DefaultRunLengths.Measure, "measured instructions per run")
	)
	rf := cliflags.RegisterRunnerFlags(flag.CommandLine)
	flag.Parse()

	if rf.PrintVersion(os.Stdout) {
		return
	}
	b, err := rf.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer b.Close()

	// ^C cancels the context; the session's figure methods then panic
	// with a sim.ErrCanceled-wrapping error, which the deferred recover
	// turns into a clean exit (completed simulations stay in -store).
	ctx := sim.SignalContext()
	runner := sim.New(b.RunnerOptions()...)
	progress := sim.NewProgress(os.Stderr, runner, 0)
	defer func() {
		if v := recover(); v != nil {
			if err, ok := v.(error); ok && errors.Is(err, sim.ErrCanceled) {
				progress.Finish()
				fmt.Fprintln(os.Stderr, "interrupted")
				os.Exit(130)
			}
			panic(v)
		}
	}()
	start := time.Now()

	if *scen != "" {
		if *exp != "all" {
			fmt.Fprintln(os.Stderr, "use either -exp or -scenario, not both")
			os.Exit(1)
		}
		spec, err := scenario.Resolve(*scen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		matrix, err := spec.Expand(scenario.CommandOverrides(warmup, measure, ""))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		progress.AddTotal(len(matrix.Requests))
		rep, err := matrix.Run(ctx, runner, progress.Observe)
		progress.Finish()
		if err != nil {
			if errors.Is(err, sim.ErrCanceled) {
				fmt.Fprintln(os.Stderr, "interrupted")
				os.Exit(130)
			}
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(rep.Table())
		reportCounters(runner, start)
		return
	}

	// Figure sweeps discover work figure by figure, so the total is
	// unknown upfront; the progress line shows the running done count.
	s := experiments.NewSessionContext(ctx, experiments.RunLengths{Warmup: *warmup, Measure: *measure}, runner)
	s.OnEvent = progress.Observe
	want := func(name string) bool { return *exp == "all" || *exp == name }
	// show terminates the live progress line before each table so stdout
	// and the stderr progress line never interleave mid-draw.
	show := func(v fmt.Stringer) {
		progress.Finish()
		fmt.Println(v)
	}

	if want("table1") {
		show(experiments.Table1())
	}
	if want("storage") {
		show(experiments.StorageTable())
	}
	if want("fig4") {
		show(s.Fig4())
	}
	if want("fig5a") {
		t, _ := s.Fig5a()
		show(t)
	}
	if want("fig5b") {
		t, _ := s.Fig5b()
		show(t)
	}
	if want("fig6a") {
		t, _ := s.Fig6a()
		show(t)
	}
	if want("fig6b") {
		show(s.Fig6b())
	}
	if want("fig6c") {
		t, _ := s.Fig6c()
		show(t)
	}
	if want("fig7") {
		t, _ := s.Fig7()
		show(t)
	}
	if want("ddt") {
		t, _ := s.DDTSizing()
		show(t)
	}
	if want("storeonly") {
		t, _ := s.StoreOnly()
		show(t)
	}
	if want("cwidth") {
		t, _ := s.CounterWidth()
		show(t)
	}
	if want("ports") {
		show(s.ISRBTraffic())
	}
	if want("rob512") {
		t, _ := s.ROB512Lazy()
		show(t)
	}
	if want("singlebit") {
		t, _ := s.SingleBitME()
		show(t)
	}
	if want("disthist") {
		t, _ := s.DistanceHistorySweep()
		show(t)
	}
	if want("trackers") {
		t, _ := s.TrackerComparison()
		show(t)
	}

	known := "table1 storage fig4 fig5a fig5b fig6a fig6b fig6c fig7 ddt storeonly cwidth ports rob512 singlebit disthist trackers all"
	if !strings.Contains(known, *exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s)\n", *exp, known)
		os.Exit(1)
	}
	progress.Finish()
	reportCounters(runner, start)
}

// reportCounters prints the run's cost accounting on stderr.
func reportCounters(runner *sim.Runner, start time.Time) {
	c := runner.Counters()
	fmt.Fprintf(os.Stderr, "total time: %v (%d simulated, %d deduplicated, %d from disk cache)\n",
		time.Since(start).Round(time.Millisecond), c.Simulated, c.MemHits, c.DiskHits)
}
