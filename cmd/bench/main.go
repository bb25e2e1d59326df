// Command bench measures raw simulator speed — simulated cycles per
// wall-clock second — on the pinned workload set of internal/sim, and
// writes the BENCH_*.json report that tracks the simulator's performance
// trajectory across PRs.
//
// Usage:
//
//	bench -o BENCH_2.json                 # full pinned set
//	bench -quick -o /tmp/smoke.json       # 3-point CI smoke subset
//	bench -o BENCH_2.json -baseline BENCH_1.json   # embed speedup
//	bench -quick -baseline BENCH_2.json -gate 0.90 # CI regression gate
//
// The workload set, machine configuration and run lengths are pinned in
// internal/sim so reports from different PRs are comparable; -quick
// selects the small smoke subset CI runs on every push. A -baseline file
// (any earlier report) is embedded into the output together with the
// gmean cycles/sec speedup against it; -gate then turns the comparison
// into a pass/fail check (exit status 2 on a regression past the
// threshold), which is what the CI perf gate runs.
//
// The measurement drives the core directly — no runner, store or
// dispatch layer between the wall clock and the cycle loop. The
// service's delivered throughput is perfbench's serve-warm workload.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/sim"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "run the 3-point smoke subset")
		out      = flag.String("o", "", "write the JSON report to this file")
		baseline = flag.String("baseline", "", "earlier BENCH_*.json to embed and compare against")
		gate     = flag.Float64("gate", 0, "fail (exit 2) when gmean cycles/sec falls below this fraction of the -baseline gmean (0: off)")
		label    = flag.String("label", "", "free-form label recorded in the report")
		list     = flag.Bool("list", false, "print the pinned points and exit")
	)
	flag.Parse()

	points := sim.BenchPoints(*quick)
	if *list {
		for _, p := range points {
			fmt.Printf("%-10s %-10s warmup=%d measure=%d\n", p.Bench, p.Tracker, p.Warmup, p.Measure)
		}
		return
	}

	if *gate > 0 && *baseline == "" {
		fmt.Fprintln(os.Stderr, "bench: -gate needs a -baseline to compare against")
		os.Exit(1)
	}

	// ^C aborts the current point mid-simulation; a partial report is
	// not written (the pinned set is only comparable when complete).
	ctx := sim.SignalContext()
	done := 0
	rep, err := sim.RunBench(ctx, points, *quick, func(r sim.BenchResult) {
		done++
		fmt.Printf("[%d/%d] %-10s %-10s %9d cycles  ipc=%5.3f  %8.1f ms  %10.0f cycles/sec\n",
			done, len(points), r.Bench, r.Tracker, r.Cycles, r.IPC, float64(r.WallNS)/1e6, r.CyclesPerSec)
	})
	if err != nil {
		if errors.Is(err, sim.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.Label = *label

	var base *sim.BenchReport
	if *baseline != "" {
		base, err = sim.LoadBenchReport(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		rep.AttachBaseline(base, *baseline)
	}

	fmt.Printf("\ngmean %.0f cycles/sec, total wall %.2f s\n",
		rep.GMeanCPS, float64(rep.TotalWallNS)/1e9)
	if rep.Baseline != nil {
		fmt.Printf("baseline %s: gmean %.0f cycles/sec  ->  speedup %.2fx\n",
			rep.Baseline.Label, rep.Baseline.GMeanCPS, rep.SpeedupVsBaseline)
		if rep.Baseline.MatchedPoints > 0 {
			fmt.Printf("matched %d points: baseline gmean %.0f cycles/sec  ->  speedup %.2fx\n",
				rep.Baseline.MatchedPoints, rep.Baseline.MatchedGMeanCPS,
				rep.SpeedupVsBaselineMatched)
		}
	}

	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *out)
	}

	// The regression gate runs after the report is written, so CI can
	// upload the failing run as an artifact before the job dies. It
	// thresholds the matched-point speedup — the -quick subset against a
	// full-set baseline compares only the points both actually ran. A
	// baseline sharing no points is a gate misconfiguration, not a
	// verdict: gmean ratios across disjoint point sets measure the sets,
	// not the simulator.
	if *gate > 0 {
		// Earlier binaries could time points through a dispatch backend
		// and recorded it in the report; such a baseline measured the
		// backend, not the simulator. Nothing writes the field now.
		if base.Backend != "" {
			fmt.Fprintf(os.Stderr, "bench: gate cannot compare: the baseline measured backend %q, not the in-process simulator\n", base.Backend)
			os.Exit(1)
		}
		if rep.Baseline.MatchedPoints == 0 {
			fmt.Fprintln(os.Stderr, "bench: gate cannot compare: the baseline shares no (benchmark, tracker) points with this run")
			os.Exit(1)
		}
		speedup := rep.SpeedupVsBaselineMatched
		basis := fmt.Sprintf("%d matched points", rep.Baseline.MatchedPoints)
		if speedup < *gate {
			fmt.Fprintf(os.Stderr, "bench: gate FAILED: %.2fx the baseline over %s (threshold %.2fx)\n",
				speedup, basis, *gate)
			os.Exit(2)
		}
		fmt.Printf("gate ok: %.2fx the baseline over %s (threshold %.2fx)\n", speedup, basis, *gate)
	}
}
