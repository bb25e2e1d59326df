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
