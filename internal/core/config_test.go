package core

import (
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/tage"
	"repro/internal/workloads"
)

// TestCappedConfigAllocatesBounded: the machine with every capped value
// at its cap passes Check, builds and runs, and stays far from what
// would take a shared service down. A cap raised past what a process
// can afford fails here instead of as a fatal out-of-memory in
// production.
func TestCappedConfigAllocatesBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize = maxWindow, maxWindow, maxWindow, maxWindow
	cfg.PhysRegsPerClass = maxPhysRegs
	cfg.MaxCheckpoints = maxCheckpoints
	cfg.NumFPMulDiv = maxFPMulDiv
	cfg.ME.Enabled = true
	cfg.SMB.Enabled = true // builds the DDT
	cfg.SMB.DDT.Entries = maxDDTEntries
	cfg.Tracker = TrackerConfig{Kind: TrackerISRB, Entries: maxTrackerEntries, CounterBits: maxCounterBits}
	cfg.Branch.BTBEntries, cfg.Branch.BTBWays, cfg.Branch.RASEntries = maxTableEntries, maxWays, maxTableEntries
	cfg.Branch.TAGE.LogBaseEntries = maxLogEntries
	cfg.Branch.TAGE.Tagged = make([]tage.TaggedSpec, tage.MaxComponents)
	for i := range cfg.Branch.TAGE.Tagged {
		cfg.Branch.TAGE.Tagged[i] = tage.TaggedSpec{LogEntries: maxLogEntries, TagBits: 12, HistLen: 4 * (i + 1), PathLen: 16}
	}
	for _, c := range []*cache.Config{&cfg.Mem.L1I, &cfg.Mem.L1D, &cfg.Mem.L2} {
		c.SizeKB, c.Ways, c.MSHRs = maxCacheKB, maxWays, maxMSHRs
	}
	cfg.Mem.PrefTable, cfg.Mem.PrefDegree = maxTableEntries, maxPrefDegree
	cfg.Mem.DRAM.Ranks, cfg.Mem.DRAM.BanksPerRank = 1, maxDRAMBanks
	cfg.StoreSets.SSITEntries, cfg.StoreSets.LFSTEntries = maxTableEntries, maxTableEntries
	if err := cfg.Check(); err != nil {
		t.Fatalf("the all-caps configuration is invalid: %v", err)
	}

	spec, err := workloads.Resolve("crafty")
	if err != nil {
		t.Fatal(err)
	}
	prog := workloads.Build(spec)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := New(cfg, prog).Run(0, 1000)
	runtime.ReadMemStats(&after)
	if st.Committed < 1000 {
		t.Fatalf("committed %d µops, want 1000", st.Committed)
	}
	const budget = 256 << 20
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > budget {
		t.Fatalf("the all-caps core allocated %d MiB, budget %d MiB", alloc>>20, budget>>20)
	} else {
		t.Logf("the all-caps core allocated %d MiB", alloc>>20)
	}
}

// TestTraceWindowHoldsEveryInFlightUop: the trace window is sized from
// the configuration, so every ROB that Check admits runs. A fixed
// 4096-µop window panicked on mcf at ROB 4096 before the 600th commit
// ("trace window rewind too deep"): the ROB and the fetch queue together
// held more µops than the window, and a flush rewound past it.
func TestTraceWindowHoldsEveryInFlightUop(t *testing.T) {
	spec, err := workloads.Resolve("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prog := workloads.Build(spec)
	for _, rob := range []int{4096, maxWindow} {
		cfg := DefaultConfig()
		cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize = rob, rob, rob, rob
		cfg.PhysRegsPerClass = 2 * rob
		cfg.MaxCheckpoints = maxCheckpoints
		if err := cfg.Check(); err != nil {
			t.Fatalf("ROB %d: %v", rob, err)
		}
		if st := New(cfg, prog).Run(0, 5000); st.Committed < 5000 {
			t.Fatalf("ROB %d: committed %d µops, want 5000", rob, st.Committed)
		}
	}
}

// TestCheckRejectsBrokenTAGEGeometry: Check bounds the branch TAGE's tag,
// counter and useful-counter widths. Outside them the constructor
// panics on a negative shift, or a tag folds wider than the 32 bits
// History.Fold supports.
func TestCheckRejectsBrokenTAGEGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*tage.BranchConfig)
	}{
		{"tag bits -1", func(b *tage.BranchConfig) { b.Tagged[3].TagBits = -1 }},
		{"tag bits 0", func(b *tage.BranchConfig) { b.Tagged[0].TagBits = 0 }},
		{"tag bits 33", func(b *tage.BranchConfig) { b.Tagged[11].TagBits = 33 }},
		{"tag bits 40", func(b *tage.BranchConfig) { b.Tagged[5].TagBits = 40 }},
		{"counter bits 0", func(b *tage.BranchConfig) { b.CounterBits = 0 }},
		{"counter bits -2", func(b *tage.BranchConfig) { b.CounterBits = -2 }},
		{"counter bits 9", func(b *tage.BranchConfig) { b.CounterBits = 9 }},
		{"useful bits -1", func(b *tage.BranchConfig) { b.UsefulBits = -1 }},
		{"useful bits 9", func(b *tage.BranchConfig) { b.UsefulBits = 9 }},
	} {
		cfg := DefaultConfig()
		cfg.Branch.TAGE.Tagged = append([]tage.TaggedSpec(nil), cfg.Branch.TAGE.Tagged...)
		tc.edit(&cfg.Branch.TAGE)
		if err := cfg.Check(); err == nil {
			t.Errorf("%s: Check accepted the geometry", tc.name)
		}
	}
	// The bounds themselves are valid machines.
	cfg := DefaultConfig()
	cfg.Branch.TAGE.Tagged = append([]tage.TaggedSpec(nil), cfg.Branch.TAGE.Tagged...)
	cfg.Branch.TAGE.Tagged[0].TagBits, cfg.Branch.TAGE.Tagged[1].TagBits = 1, 32
	cfg.Branch.TAGE.CounterBits, cfg.Branch.TAGE.UsefulBits = 1, 0
	if err := cfg.Check(); err != nil {
		t.Fatalf("the widths at their bounds: %v", err)
	}
	New(cfg, moveChainProgram()).Run(0, 1000)
	cfg.Branch.TAGE.CounterBits, cfg.Branch.TAGE.UsefulBits = 8, 8
	if err := cfg.Check(); err != nil {
		t.Fatalf("the widths at their bounds: %v", err)
	}
	New(cfg, moveChainProgram()).Run(0, 1000)
}

// TestCheckBoundsFetchWidth: fetch fills its queue only when a whole
// fetch width fits, so a machine fetching fetchQueueSize µops or more a
// cycle never fetched, and its run ended at the commit deadlock
// detector: a simulator fault for what is a bad configuration. Check
// rejects such widths, and the widest width it admits runs.
func TestCheckBoundsFetchWidth(t *testing.T) {
	cfg := DefaultConfig()
	for _, w := range []int{fetchQueueSize, fetchQueueSize + 1, 4096} {
		cfg.FetchWidth = w
		if err := cfg.Check(); err == nil {
			t.Errorf("fetch width %d: Check accepted it", w)
		}
	}
	cfg.FetchWidth = fetchQueueSize - 1
	if err := cfg.Check(); err != nil {
		t.Fatalf("fetch width %d: %v", cfg.FetchWidth, err)
	}
	if st := New(cfg, moveChainProgram()).Run(0, 5000); st.Committed < 5000 {
		t.Fatalf("fetch width %d: committed %d µops, want 5000", cfg.FetchWidth, st.Committed)
	}
}
