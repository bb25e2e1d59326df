// Command regsim runs one benchmark on one machine configuration and
// prints the run's statistics. Plain runs go through the shared
// internal/sim runner (so -store reuses results across invocations);
// -trace drives the core directly because tracing needs the live
// pipeline.
//
// -json emits the run's full sim.Result as one JSON object on stdout —
// the same value the regshared service would return for the request —
// which makes regsim scriptable as a host smoke-check: run it on a
// prospective fleet machine and diff the object against a known-good
// host.
//
// Usage:
//
//	regsim -bench crafty -me -smb -tracker isrb -entries 24 -measure 200000
//	regsim -bench crafty -json | jq .IPC
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/smb"
	"repro/internal/workloads"
)

func main() {
	var (
		bench     = flag.String("bench", "crafty", "workload name: catalog benchmark or gen:family?k=v (see -list)")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		me        = flag.Bool("me", false, "enable Move Elimination")
		smbOn     = flag.Bool("smb", false, "enable Speculative Memory Bypassing")
		loadLoad  = flag.Bool("loadload", true, "SMB: allow load-load pairs")
		committed = flag.Bool("committed", false, "SMB: bypass from committed instructions (lazy reclaim)")
		pred      = flag.String("pred", "tage", "SMB distance predictor: tage|nosq")
		ddt       = flag.Int("ddt", 0, "DDT entries (0 = unlimited)")
		tracker   = flag.String("tracker", "unlimited", "tracker: isrb|unlimited|counters|mit|rda")
		entries   = flag.Int("entries", 32, "tracker entries")
		ctrBits   = flag.Int("ctrbits", 3, "ISRB counter bits")
		warmup    = flag.Uint64("warmup", 50_000, "warmup instructions")
		measure   = flag.Uint64("measure", 200_000, "measured instructions")
		verbose   = flag.Bool("v", false, "print extended statistics")
		trace     = flag.Uint64("trace", 0, "print a pipeline trace for the first N cycles of measurement")
		jsonOut   = flag.Bool("json", false, "emit the run's full sim.Result as one JSON object")
	)
	rf := cliflags.RegisterRunnerFlags(flag.CommandLine, cliflags.WithoutBackend())
	flag.Parse()

	if rf.PrintVersion(os.Stdout) {
		return
	}

	if *list {
		members, _ := workloads.Members("all")
		for _, m := range members {
			fmt.Println(m.Name)
		}
		for _, g := range workloads.Generators() {
			fmt.Printf("gen:%s — %s\n", g.Family, g.Doc)
			for _, p := range g.Params {
				fmt.Printf("    %s=%v  %s\n", p.Key, p.Def, p.Doc)
			}
		}
		return
	}

	cfg := core.DefaultConfig()
	cfg.ME.Enabled = *me
	cfg.SMB.Enabled = *smbOn
	cfg.SMB.LoadLoad = *loadLoad
	cfg.SMB.BypassCommitted = *committed
	if *pred == "nosq" {
		cfg.SMB.Predictor = core.DistanceNoSQ
	}
	if *ddt > 0 {
		cfg.SMB.DDT = smb.DDTConfig{Entries: *ddt, TagBits: 5}
	}
	cfg.Tracker = core.TrackerConfig{
		Kind:        core.TrackerKind(*tracker),
		Entries:     *entries,
		CounterBits: *ctrBits,
	}

	// One validation contract for both paths: the -trace path drives the
	// core directly, so check the request here instead of letting
	// core.New panic on a config the runner would have rejected cleanly.
	req := sim.Request{Bench: *bench, Config: cfg, Warmup: *warmup, Measure: *measure}
	if err := req.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// ^C aborts the run mid-cycle-loop with a typed error instead of
	// killing the process.
	ctx := sim.SignalContext()
	var res *sim.Result
	if *trace > 0 {
		res = traceRun(ctx, cfg, *bench, *warmup, *measure, *trace)
	} else {
		store, err := rf.OpenStore()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runner := sim.New(sim.WithStore(store))
		res, err = runner.Run(ctx, req)
		if err != nil {
			if errors.Is(err, sim.ErrCanceled) {
				fmt.Fprintln(os.Stderr, "interrupted")
				os.Exit(130)
			}
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	st := &res.S

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("benchmark      %s (%d static µops)\n", res.Bench, res.StaticUops)
	fmt.Printf("tracker        %s\n", res.TrackerName)
	fmt.Printf("cycles         %d\n", st.Cycles)
	fmt.Printf("committed      %d\n", st.Committed)
	fmt.Printf("IPC            %.3f\n", st.IPC())
	fmt.Printf("branch misp.   %d (%.2f MPKI)\n", st.BranchMispredicts,
		1000*float64(st.BranchMispredicts)/float64(st.Committed))
	fmt.Printf("memory traps   %d\n", st.MemTraps)
	fmt.Printf("false deps     %d\n", st.FalseDeps)
	if *me {
		fmt.Printf("eliminated     %d (%.1f%% of committed)\n", st.CommittedEliminated, 100*st.ElimRate())
	}
	if *smbOn {
		fmt.Printf("bypassed loads %d (%.1f%% of loads)\n", st.CommittedBypassed, 100*st.BypassRate())
		fmt.Printf("bypass misp.   %d\n", st.BypassMispredicts)
		fmt.Printf("traps avoided  %d\n", st.TrapsAvoidedSMB)
	}
	if *verbose {
		ts := res.Tracker
		fmt.Printf("-- tracker: sharesME=%d sharesSMB=%d failsFull=%d failsSat=%d frees=%d recoveryFrees=%d\n",
			ts.SharesME, ts.SharesSMB, ts.ShareFailsFull, ts.ShareFailsSat, ts.Frees, ts.RecoveryFrees)
		fmt.Printf("-- loads: stlf=%d partialWaits=%d toMemory=%d\n",
			st.STLFForwards, st.PartialWaits, st.LoadsToMemory)
		fmt.Printf("-- squashed=%d renamed=%d fetched=%d\n", st.SquashedUops, st.RenamedUops, st.FetchedUops)
		fmt.Printf("-- share dist=%.1f reclaim checks=%d dist=%.1f b2b=%.1f%% skipped-by-flag=%d\n",
			st.ShareDistance(), st.ReclaimChecks, st.ReclaimCheckDistance(),
			100*st.ReclaimBackToBackRate(), st.ReclaimSkippedByFlag)
		m := res.Mem
		fmt.Printf("-- L1D: acc=%d miss=%d | L2: acc=%d miss=%d | DRAM reads=%d\n",
			m.L1DAccesses, m.L1DMisses, m.L2Accesses, m.L2Misses, m.DRAMReads)
	}
}

// traceRun builds the core directly, warms it up, traces the first n
// cycles of measurement, then finishes the measured region and packages
// the statistics in the sim.Result shape the printers expect. The
// warmup and post-trace regions observe ctx like any other run.
func traceRun(ctx context.Context, cfg core.Config, bench string, warmup, measure, n uint64) *sim.Result {
	spec, err := workloads.Resolve(bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	prog := workloads.Build(spec)
	c := core.New(cfg, prog)
	finish := func(st *core.Stats, err error) *core.Stats {
		if err != nil {
			fmt.Fprintln(os.Stderr, "interrupted")
			os.Exit(130)
		}
		return st
	}
	finish(c.RunContext(ctx, warmup, 1))
	c.AttachTracer(&core.TextTracer{W: os.Stderr})
	for i := uint64(0); i < n; i++ {
		c.Cycle()
	}
	c.AttachTracer(nil)
	st := finish(c.RunContext(ctx, 0, measure))
	return sim.Snapshot(spec.Name, prog.NumInsts(), c, st)
}
