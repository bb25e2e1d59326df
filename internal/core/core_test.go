package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/workloads"
)

// runBench simulates a catalog benchmark under cfg.
func runBench(t *testing.T, name string, cfg Config, warmup, measure uint64) (*Core, *Stats) {
	t.Helper()
	spec, err := workloads.Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	c := New(cfg, workloads.Build(spec))
	st := c.Run(warmup, measure)
	return c, st
}

// TestBaselinePipelineSanity: the baseline machine commits exactly the
// requested work at a plausible IPC on a representative benchmark.
func TestBaselinePipelineSanity(t *testing.T) {
	_, st := runBench(t, "crafty", DefaultConfig(), 5000, 40000)
	if st.Committed < 40000 {
		t.Fatalf("committed %d < requested", st.Committed)
	}
	ipc := st.IPC()
	if ipc < 0.1 || ipc > 6 {
		t.Fatalf("implausible IPC %v", ipc)
	}
	if st.CommittedLoads == 0 || st.CommittedStores == 0 || st.CommittedBranches == 0 {
		t.Fatal("degenerate committed mix")
	}
}

// TestIPCNeverExceedsWidth: fundamental bound.
func TestIPCNeverExceedsWidth(t *testing.T) {
	for _, name := range []string{"gzip", "hmmer", "lbm", "vortex"} {
		_, st := runBench(t, name, DefaultConfig(), 2000, 20000)
		if st.IPC() > float64(DefaultConfig().CommitWidth) {
			t.Fatalf("%s: IPC %v exceeds commit width", name, st.IPC())
		}
	}
}

// TestCommittedStreamIdenticalAcrossConfigs: ME/SMB are microarchitectural
// — the committed instruction mix must be identical whatever the
// configuration (same trace, same instruction boundaries).
func TestCommittedStreamIdenticalAcrossConfigs(t *testing.T) {
	mix := func(cfg Config) [4]uint64 {
		_, st := runBench(t, "hmmer", cfg, 3000, 30000)
		return [4]uint64{st.CommittedLoads, st.CommittedStores, st.CommittedBranches, st.CommittedMoves}
	}
	base := mix(DefaultConfig())

	me := DefaultConfig()
	me.ME.Enabled = true
	me.Tracker = TrackerConfig{Kind: TrackerISRB, Entries: 16, CounterBits: 3}

	smbCfg := DefaultConfig()
	smbCfg.SMB.Enabled = true
	smbCfg.Tracker = TrackerConfig{Kind: TrackerISRB, Entries: 24, CounterBits: 3}

	both := DefaultConfig()
	both.ME.Enabled = true
	both.SMB.Enabled = true
	both.Tracker = TrackerConfig{Kind: TrackerISRB, Entries: 32, CounterBits: 3}

	for i, cfg := range []Config{me, smbCfg, both} {
		got := mix(cfg)
		// Commit boundaries may differ by up to a commit group at the
		// measurement edges.
		for k := 0; k < 4; k++ {
			d := int64(got[k]) - int64(base[k])
			if d < -64 || d > 64 {
				t.Fatalf("config %d: committed mix field %d differs: %v vs %v", i, k, got, base)
			}
		}
	}
}

// TestTrackersBehaviourallyEquivalentWhenAmple: with capacity to spare,
// every tracking scheme commits the same stream; only timing may differ.
func TestTrackersBehaviourallyEquivalentWhenAmple(t *testing.T) {
	for _, kind := range []TrackerKind{TrackerISRB, TrackerUnlimited, TrackerCounters, TrackerRDA} {
		cfg := DefaultConfig()
		cfg.ME.Enabled = true
		cfg.SMB.Enabled = true
		cfg.Tracker = TrackerConfig{Kind: kind, Entries: 64, CounterBits: 8}
		_, st := runBench(t, "gamess", cfg, 3000, 25000)
		if st.Committed < 25000 {
			t.Fatalf("tracker %s: committed %d", kind, st.Committed)
		}
	}
}

// TestMITRejectsSMBShares: the MIT can support ME but not SMB (§4.2), so
// an MIT-tracked machine with SMB enabled must bypass nothing.
func TestMITRejectsSMBShares(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SMB.Enabled = true
	cfg.Tracker = TrackerConfig{Kind: TrackerMIT, Entries: 16}
	c, st := runBench(t, "hmmer", cfg, 3000, 25000)
	if st.CommittedBypassed != 0 {
		t.Fatalf("MIT machine bypassed %d loads", st.CommittedBypassed)
	}
	if c.Tracker().Stats().ShareFailsKind == 0 {
		t.Fatal("MIT recorded no kind rejections despite SMB attempts")
	}
}

// TestMESpeedsUpCrafty: the paper's headline ME result, end to end.
func TestMESpeedsUpCrafty(t *testing.T) {
	_, base := runBench(t, "crafty", DefaultConfig(), 5000, 40000)
	cfg := DefaultConfig()
	cfg.ME.Enabled = true
	cfg.Tracker = TrackerConfig{Kind: TrackerISRB, Entries: 16, CounterBits: 3}
	c, me := runBench(t, "crafty", cfg, 5000, 40000)
	if me.IPC() <= base.IPC() {
		t.Fatalf("ME did not speed up crafty: %v vs %v", me.IPC(), base.IPC())
	}
	if me.CommittedEliminated == 0 {
		t.Fatal("no moves eliminated")
	}
	if c.MoveElim().Candidates < c.MoveElim().Eliminated {
		t.Fatal("eliminated more than candidates")
	}
}

// TestSMBSpeedsUpSpillCode: SMB end to end on a spill-heavy workload with
// bypasses validated (no value mispredictions on a clean pattern).
func TestSMBSpeedsUpSpillCode(t *testing.T) {
	spec := workloads.Spec{Name: "spilly", SpillPct: 0.3, SpillDist: 4, ILP: 2, LoadOnChainPct: 0.8}
	prog := workloads.Build(spec)

	base := New(DefaultConfig(), prog)
	bst := base.Run(3000, 30000)

	cfg := DefaultConfig()
	cfg.SMB.Enabled = true
	cfg.Tracker = TrackerConfig{Kind: TrackerISRB, Entries: 24, CounterBits: 3}
	c := New(cfg, workloads.Build(spec))
	st := c.Run(3000, 30000)

	if st.IPC() <= bst.IPC() {
		t.Fatalf("SMB did not speed up spill code: %v vs %v", st.IPC(), bst.IPC())
	}
	if st.CommittedBypassed == 0 {
		t.Fatal("no loads bypassed")
	}
	if st.BypassMispredicts > st.CommittedBypassed/50 {
		t.Fatalf("excessive bypass mispredictions: %d of %d", st.BypassMispredicts, st.CommittedBypassed)
	}
}

// TestBranchRecovery: a branch-heavy benchmark must recover (mispredicts
// and squashes both nonzero) and still commit everything.
func TestBranchRecovery(t *testing.T) {
	_, st := runBench(t, "gcc", DefaultConfig(), 3000, 30000)
	if st.BranchMispredicts == 0 {
		t.Fatal("gcc analogue had no branch mispredictions")
	}
	if st.SquashedUops == 0 {
		t.Fatal("mispredictions squashed nothing")
	}
}

// TestPerRegCountersRecoveryPenalty: the sequential-walk scheme must lose
// cycles to recovery relative to the checkpointable ISRB on a
// mispredict-heavy workload (§4.2 — the paper's motivation).
func TestPerRegCountersRecoveryPenalty(t *testing.T) {
	mk := func(kind TrackerKind) *Stats {
		cfg := DefaultConfig()
		cfg.ME.Enabled = true
		cfg.SMB.Enabled = true
		cfg.Tracker = TrackerConfig{Kind: kind, Entries: 64, CounterBits: 8}
		_, st := runBench(t, "gobmk", cfg, 3000, 40000)
		return st
	}
	isrb := mk(TrackerISRB)
	counters := mk(TrackerCounters)
	if counters.RecoveryCycles <= isrb.RecoveryCycles {
		t.Fatalf("sequential rollback recovery cycles (%d) not larger than ISRB's (%d)",
			counters.RecoveryCycles, isrb.RecoveryCycles)
	}
	if counters.IPC() >= isrb.IPC() {
		t.Fatalf("per-register counters IPC %v >= ISRB IPC %v on a branchy workload",
			counters.IPC(), isrb.IPC())
	}
}

// TestLazyReclaimEnablesCommittedBypass: with lazy reclaim, some bypasses
// come from committed producers (§3.3); with eager reclaim, none do.
func TestLazyReclaimEnablesCommittedBypass(t *testing.T) {
	eager := DefaultConfig()
	eager.SMB.Enabled = true
	_, est := runBench(t, "astar", eager, 5000, 50000)
	if est.BypassedFromCommitted != 0 {
		t.Fatalf("eager mode bypassed %d from committed", est.BypassedFromCommitted)
	}
	lazy := eager
	lazy.SMB.BypassCommitted = true
	_, lst := runBench(t, "astar", lazy, 5000, 50000)
	if lst.BypassedFromCommitted == 0 {
		t.Fatal("lazy mode never bypassed from committed instructions")
	}
}

// TestStoreOnlyReducesBypasses: disabling load-load pairs must reduce the
// bypass rate on redundancy-heavy code (§6.2).
func TestStoreOnlyReducesBypasses(t *testing.T) {
	full := DefaultConfig()
	full.SMB.Enabled = true
	_, fst := runBench(t, "astar", full, 5000, 50000)
	so := full
	so.SMB.LoadLoad = false
	_, sst := runBench(t, "astar", so, 5000, 50000)
	if sst.CommittedBypassed >= fst.CommittedBypassed {
		t.Fatalf("store-only bypassed %d >= full %d", sst.CommittedBypassed, fst.CommittedBypassed)
	}
}

// TestMemoryTrapsOccurAndResolve: the trap machinery produces traps on a
// trap-configured workload without warmup, and the machine survives.
func TestMemoryTrapsOccurAndResolve(t *testing.T) {
	_, st := runBench(t, "hmmer", DefaultConfig(), 0, 60000)
	if st.MemTraps == 0 {
		t.Fatal("no memory-order traps on the trap-configured benchmark")
	}
	if st.FalseDeps == 0 {
		t.Fatal("no false dependencies on the fd-configured benchmark")
	}
}

// TestSTLFHappens: store-to-load forwarding fires on spill code.
func TestSTLFHappens(t *testing.T) {
	_, st := runBench(t, "gcc", DefaultConfig(), 3000, 30000)
	if st.STLFForwards == 0 {
		t.Fatal("no store-to-load forwarding on spill-heavy code")
	}
}

// TestEliminatedMovesSkipScheduler: the paper's ME contract — eliminated
// moves are renamed but never issue. We verify through the counters: with
// an always-succeeding tracker, (committed eliminated) approaches the
// number of 32/64-bit int moves.
func TestEliminatedMovesSkipScheduler(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ME.Enabled = true
	_, st := runBench(t, "vortex", cfg, 3000, 30000)
	if st.CommittedEliminated == 0 {
		t.Fatal("nothing eliminated")
	}
	if st.CommittedEliminated > st.CommittedMoves {
		t.Fatalf("eliminated (%d) exceeds committed moves (%d)", st.CommittedEliminated, st.CommittedMoves)
	}
}

// TestCheckpointPressure: a tiny checkpoint pool must still make forward
// progress (rename stalls, no deadlock).
func TestCheckpointPressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCheckpoints = 4
	_, st := runBench(t, "gobmk", cfg, 1000, 15000)
	if st.Committed < 15000 {
		t.Fatal("did not complete under checkpoint pressure")
	}
	if st.StallCkpt == 0 {
		t.Fatal("no checkpoint stalls recorded with a 4-entry pool on a branchy workload")
	}
}

// TestTinyWindows: extreme resource pressure must not deadlock.
func TestTinyWindows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBSize = 16
	cfg.IQSize = 8
	cfg.LQSize = 6
	cfg.SQSize = 6
	cfg.MaxCheckpoints = 8
	cfg.PhysRegsPerClass = 48
	cfg.SMB.Enabled = true
	cfg.ME.Enabled = true
	cfg.Tracker = TrackerConfig{Kind: TrackerISRB, Entries: 8, CounterBits: 3}
	_, st := runBench(t, "parser", cfg, 1000, 10000)
	if st.Committed < 10000 {
		t.Fatal("tiny machine did not complete")
	}
}

// TestSmallISRBAbortsShares: a 1-entry ISRB must reject most sharing but
// never break correctness.
func TestSmallISRBAbortsShares(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ME.Enabled = true
	cfg.SMB.Enabled = true
	cfg.Tracker = TrackerConfig{Kind: TrackerISRB, Entries: 1, CounterBits: 3}
	c, st := runBench(t, "hmmer", cfg, 2000, 20000)
	ts := c.Tracker().Stats()
	if ts.ShareFailsFull == 0 {
		t.Fatal("1-entry ISRB rejected nothing")
	}
	if st.Committed < 20000 {
		t.Fatal("run did not complete")
	}
}

// TestDeterministicSimulation: identical configuration and benchmark give
// identical cycle counts.
func TestDeterministicSimulation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SMB.Enabled = true
	_, a := runBench(t, "wupwise", cfg, 2000, 20000)
	_, b := runBench(t, "wupwise", cfg, 2000, 20000)
	if a.Cycles != b.Cycles || a.Committed != b.Committed {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d cycles/committed",
			a.Cycles, a.Committed, b.Cycles, b.Committed)
	}
}

// TestAllBenchmarksRunBaseline is the broad integration sweep: every
// catalog benchmark must run (the regfile double-free guard is armed
// throughout).
func TestAllBenchmarksRunBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	members, _ := workloads.Members("all")
	for _, m := range members {
		name := m.Name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.ME.Enabled = true
			cfg.SMB.Enabled = true
			cfg.SMB.BypassCommitted = name[0]%2 == 0 // exercise both modes
			cfg.Tracker = TrackerConfig{Kind: TrackerISRB, Entries: 24, CounterBits: 3}
			_, st := runBench(t, name, cfg, 2000, 15000)
			if st.Committed < 15000 {
				t.Fatalf("committed %d", st.Committed)
			}
		})
	}
}

// TestExecLatencies: Table 1's functional-unit latencies.
func TestExecLatencies(t *testing.T) {
	cases := []struct {
		u    isa.Uop
		want uint64
	}{
		{isa.Uop{Op: isa.ALU}, 1},
		{isa.Uop{Op: isa.Move}, 1},
		{isa.Uop{Op: isa.Branch}, 1},
		{isa.Uop{Op: isa.MulDiv}, 3},
		{isa.Uop{Op: isa.MulDiv, Heavy: true}, 25},
		{isa.Uop{Op: isa.FP}, 3},
		{isa.Uop{Op: isa.FPMulDiv}, 5},
		{isa.Uop{Op: isa.FPMulDiv, Heavy: true}, 10},
	}
	for _, c := range cases {
		if got := ExecLatency(&c.u); got != c.want {
			t.Errorf("latency(%v,heavy=%v) = %d, want %d", c.u.Op, c.u.Heavy, got, c.want)
		}
	}
}

// TestOverlapContains: the byte-range helpers the LSQ relies on.
func TestOverlapContains(t *testing.T) {
	if !overlap(0x100, 64, 0x100, 64) {
		t.Fatal("identical ranges must overlap")
	}
	if overlap(0x100, 64, 0x108, 64) {
		t.Fatal("adjacent 8-byte ranges must not overlap")
	}
	if !overlap(0x100, 64, 0x104, 32) {
		t.Fatal("contained range must overlap")
	}
	if !contains(0x100, 64, 0x104, 32) {
		t.Fatal("32-bit load inside 64-bit store must be contained")
	}
	if contains(0x104, 32, 0x100, 64) {
		t.Fatal("64-bit load cannot be contained in a 32-bit store")
	}
}

// TestMinimumBranchPenalty approximates Table 1's 20-cycle minimum
// misprediction penalty: on an unpredictable-branch microbenchmark the
// per-mispredict cost must be at least ~15 cycles.
func TestMinimumBranchPenalty(t *testing.T) {
	spec := workloads.Spec{Name: "brancher", BranchPct: 0.9, HardBranchPct: 1.0, ILP: 4, BlockLen: 12}
	prog := workloads.Build(spec)
	c := New(DefaultConfig(), prog)
	st := c.Run(3000, 30000)
	if st.BranchMispredicts < 100 {
		t.Fatalf("microbenchmark produced only %d mispredicts", st.BranchMispredicts)
	}
	// Cycles beyond a 2-IPC ideal, attributed to mispredicts.
	ideal := st.Committed / 4
	if st.Cycles < ideal {
		return
	}
	perMisp := float64(st.Cycles-ideal) / float64(st.BranchMispredicts)
	if perMisp < 10 {
		t.Fatalf("misprediction penalty ≈ %.1f cycles, below the deep-pipeline minimum", perMisp)
	}
}

// TestWrongPathActivity: wrong-path fetch really happens (squashed µops
// renamed beyond the committed count).
func TestWrongPathActivity(t *testing.T) {
	_, st := runBench(t, "gcc", DefaultConfig(), 2000, 25000)
	if st.RenamedUops <= st.Committed {
		t.Fatal("no wrong-path µops renamed; wrong-path fetch is not exercised")
	}
}

// countingTracer verifies lifecycle-event consistency.
type countingTracer struct {
	renamed, issued, completed, committed, squashed, flushes int
}

func (t *countingTracer) Renamed(uint64, *isa.Uop, uint64, bool, bool) { t.renamed++ }
func (t *countingTracer) Issued(uint64, uint64)                        { t.issued++ }
func (t *countingTracer) Completed(uint64, uint64)                     { t.completed++ }
func (t *countingTracer) Committed(uint64, uint64)                     { t.committed++ }
func (t *countingTracer) Squashed(uint64, uint64)                      { t.squashed++ }
func (t *countingTracer) Flush(uint64, string, int)                    { t.flushes++ }

// TestTracerLifecycleConsistency: renamed = committed + squashed +
// in-flight; committed events match the committed count.
func TestTracerLifecycleConsistency(t *testing.T) {
	spec, _ := workloads.Resolve("gcc")
	cfg := DefaultConfig()
	c := New(cfg, workloads.Build(spec))
	tr := &countingTracer{}
	c.AttachTracer(tr)
	st := c.Run(0, 20000)
	if uint64(tr.committed) != st.Committed {
		t.Fatalf("tracer committed %d, stats %d", tr.committed, st.Committed)
	}
	inflight := tr.renamed - tr.committed - tr.squashed
	if inflight < 0 || inflight > cfg.ROBSize+64 {
		t.Fatalf("lifecycle imbalance: renamed=%d committed=%d squashed=%d",
			tr.renamed, tr.committed, tr.squashed)
	}
	if tr.flushes == 0 {
		t.Fatal("branchy run produced no flush events")
	}
	if tr.issued == 0 || tr.completed < tr.committed {
		t.Fatalf("issue/complete counts wrong: issued=%d completed=%d committed=%d",
			tr.issued, tr.completed, tr.committed)
	}
}

// TestRegisterConservationAudit drains full simulations under every
// tracker scheme and optimization mix and audits physical register
// conservation: no register may leak or be double-accounted (§4.3's
// correctness requirement).
func TestRegisterConservationAudit(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"baseline", DefaultConfig()},
		{"me-isrb8", func() Config {
			cfg := DefaultConfig()
			cfg.ME.Enabled = true
			cfg.Tracker = TrackerConfig{Kind: TrackerISRB, Entries: 8, CounterBits: 3}
			return cfg
		}()},
		{"smb-isrb24", func() Config {
			cfg := DefaultConfig()
			cfg.SMB.Enabled = true
			cfg.Tracker = TrackerConfig{Kind: TrackerISRB, Entries: 24, CounterBits: 3}
			return cfg
		}()},
		{"combined-lazy", func() Config {
			cfg := DefaultConfig()
			cfg.ME.Enabled = true
			cfg.SMB.Enabled = true
			cfg.SMB.BypassCommitted = true
			cfg.Tracker = TrackerConfig{Kind: TrackerISRB, Entries: 32, CounterBits: 3}
			return cfg
		}()},
		{"combined-rda", func() Config {
			cfg := DefaultConfig()
			cfg.ME.Enabled = true
			cfg.SMB.Enabled = true
			cfg.Tracker = TrackerConfig{Kind: TrackerRDA, Entries: 32}
			return cfg
		}()},
		{"combined-counters", func() Config {
			cfg := DefaultConfig()
			cfg.ME.Enabled = true
			cfg.SMB.Enabled = true
			cfg.Tracker = TrackerConfig{Kind: TrackerCounters, Entries: 0, CounterBits: 8}
			return cfg
		}()},
	}
	for _, cs := range cases {
		cs := cs
		for _, bench := range []string{"hmmer", "gcc", "astar"} {
			t.Run(cs.name+"/"+bench, func(t *testing.T) {
				t.Parallel()
				spec, _ := workloads.Resolve(bench)
				c := New(cs.cfg, workloads.Build(spec))
				c.Run(2000, 20000)
				if err := c.DrainAndAudit(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestNextReadyStopsAtOccupancy: when the live ROB range wraps around
// into the word that holds robHead, that word's higher bits belong to
// older entries, and the ready-set walk must not return them again.
func TestNextReadyStopsAtOccupancy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBSize = 64
	spec, _ := workloads.Resolve("crafty")
	c := New(cfg, workloads.Build(spec))
	// Live slots 60..63 then 0..5 hold ages 0..9; slots 61 (age 1) and
	// 3 (age 7) are ready.
	c.robHead, c.robCount = 60, 10
	c.readySet[0] = 1<<61 | 1<<3
	for _, tc := range []struct{ from, off, idx int }{
		{0, 1, 61},
		{2, 7, 3},
		{8, -1, 0},
	} {
		if off, idx := c.nextReady(tc.from); off != tc.off || idx != tc.idx {
			t.Errorf("nextReady(%d) = (%d, %d), want (%d, %d)", tc.from, off, idx, tc.off, tc.idx)
		}
	}
}
