// Command bench measures raw simulator speed — simulated cycles per
// wall-clock second — on a pinned workload set, and writes the
// BENCH_*.json report that tracks the simulator's performance
// trajectory across PRs.
//
// Usage:
//
//	bench -o BENCH_2.json                 # full pinned set
//	bench -quick -o /tmp/smoke.json       # 3-point CI smoke subset
//	bench -o BENCH_2.json -baseline BENCH_1.json   # embed speedup
//
// The workload set, machine configuration and run lengths are pinned
// (bench.go) so reports from different PRs are comparable; -quick
// selects the small smoke subset CI runs on every push. A -baseline file
// (any earlier report) is embedded into the output together with the
// gmean cycles/sec speedup against it, over the whole report and over
// the points both reports ran. CI's perf gate reads the matched-point
// speedup of three -quick pairs, each run against a base-commit report
// made just before it on the same runner, and fails on their median.
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
		label    = flag.String("label", "", "free-form label recorded in the report")
		list     = flag.Bool("list", false, "print the pinned points and exit")
	)
	flag.Parse()

	points := BenchPoints(*quick)
	if *list {
		for _, p := range points {
			fmt.Printf("%-10s %-10s warmup=%d measure=%d\n", p.Bench, p.Tracker, p.Warmup, p.Measure)
		}
		return
	}

	// ^C aborts the current point mid-simulation; a partial report is
	// not written (the pinned set is only comparable when complete).
	ctx := sim.SignalContext()
	done := 0
	rep, err := RunBench(ctx, points, *quick, func(r BenchResult) {
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

	if *baseline != "" {
		base, err := LoadBenchReport(*baseline)
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
}
