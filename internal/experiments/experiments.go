// Package experiments holds the paper's closed-form tables: the machine
// configuration (Table 1) and the storage arithmetic of §3.1, §4.2 and
// §4.3.3, which cmd/paperfigs prints. Every simulated figure, the
// measured storage frontier included, is a committed scenario spec under
// internal/scenario/specs.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/refcount"
	"repro/internal/smb"
	"repro/internal/stats"
)

// Table1 prints the machine configuration (the paper's Table 1).
func Table1() *stats.Table {
	cfg := core.DefaultConfig()
	t := stats.NewTable("Table 1: simulator configuration", "parameter", "value")
	add := func(k, v string) { t.AddRow(k, v) }
	add("front end", fmt.Sprintf("%d-wide fetch/decode/rename, %d-cycle front end", cfg.FetchWidth, cfg.FrontEndDepth))
	add("branch predictor", fmt.Sprintf("TAGE 1+%d components, %d entries; %d-entry 2-way BTB; %d-entry RAS",
		len(cfg.Branch.TAGE.Tagged), tageEntries(), cfg.Branch.BTBEntries, cfg.Branch.RASEntries))
	add("execution", fmt.Sprintf("%d-entry ROB, %d-entry IQ, %d/%d LQ/SQ, %d+%d INT/FP regs, %d-issue, %d-wide retire",
		cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize, cfg.PhysRegsPerClass, cfg.PhysRegsPerClass,
		cfg.IssueWidth, cfg.CommitWidth))
	add("FUs", fmt.Sprintf("%dxALU(1c) %dxMulDiv(3c/25c*) %dxFP(3c) %dxFPMulDiv(5c/10c*) %dxLd/St %dxSt",
		cfg.NumALU, cfg.NumMulDiv, cfg.NumFP, cfg.NumFPMulDiv, cfg.NumLdStr, cfg.NumStr))
	add("memory dependence", fmt.Sprintf("Store Sets %d-SSIT/%d-LFST, not rolled back on squash",
		cfg.StoreSets.SSITEntries, cfg.StoreSets.LFSTEntries))
	add("STLF latency", fmt.Sprintf("%d cycles", cfg.STLFLatency))
	add("L1I", fmt.Sprintf("%dKB %d-way, %dc", cfg.Mem.L1I.SizeKB, cfg.Mem.L1I.Ways, cfg.Mem.L1I.Latency))
	add("L1D", fmt.Sprintf("%dKB %d-way, %dc, %d MSHRs", cfg.Mem.L1D.SizeKB, cfg.Mem.L1D.Ways, cfg.Mem.L1D.Latency, cfg.Mem.L1D.MSHRs))
	add("L2", fmt.Sprintf("%dKB %d-way, %dc, stride prefetcher degree %d", cfg.Mem.L2.SizeKB, cfg.Mem.L2.Ways, cfg.Mem.L2.Latency, cfg.Mem.PrefDegree))
	add("DRAM", "single channel DDR3-1600 (11-11-11), min 75 / max 185 cycles")
	add("distance predictor", "TAGE-like 1+5 components (§3.1) or NoSQ-like 2x4K")
	return t
}

func tageEntries() int {
	cfg := core.DefaultConfig()
	n := 1 << cfg.Branch.TAGE.LogBaseEntries
	for _, t := range cfg.Branch.TAGE.Tagged {
		n += 1 << t.LogEntries
	}
	return n
}

// StorageTable reproduces the storage arithmetic of §4.2/§4.3.3/§3.1.
// Its last column quotes the figure the paper states for the row, where
// it states one.
func StorageTable() *stats.Table {
	t := stats.NewTable("Storage accounting (§3.1, §4.2, §4.3.3)",
		"structure", "CPU storage", "per checkpoint", "paper")
	kb := func(bits int) string { return fmt.Sprintf("%.2fKB (%d bits)", refcount.KB(bits), bits) }
	bits := func(b int) string { return fmt.Sprintf("%d bits", b) }

	m := refcount.MatrixScheme(192, 168, 2)
	t.AddRow("Roth 2D matrix (Haswell: 192 ROB x 2x168 regs)", kb(m), "entire matrix", "≈7.8KB")
	t.AddRow("baseline matrix scheduler (60x60)", kb(refcount.SchedulerMatrix(60)), "-", "0.44KB")
	bm, bc := refcount.BattleMatrix(336, 4)
	t.AddRow("Battle et al. matrix (336 regs x 4 sharers)", kb(bm), bits(bc), "-")
	for _, n := range []int{8, 16, 32} {
		cpu, ck := refcount.ISRBStorage(n, 3)
		paper := "-"
		if n == 32 {
			paper = "480 + 96 bits/checkpoint"
		}
		t.AddRow(fmt.Sprintf("ISRB %d entries, 3-bit counters", n), bits(cpu), bits(ck), paper)
	}
	t.AddRow("x86_64 rename map checkpoint", "-", bits(refcount.RenameMapCheckpointBits()), "≥256 bits")
	t.AddRow("per-register counters (336 regs, 2b)", bits(refcount.CountersCheckpointBits(336, 2)), "not checkpointable", "-")
	t.AddRow("TAGE-like distance predictor", kb(distStorageTAGE()), "-", "≈12.2KB")
	t.AddRow("NoSQ-style distance predictor", kb(distStorageNoSQ()), "-", "17KB")
	t.AddRow("DDT 16K entries, 14b tags", kb(refcount.DDTStorage(16384, 14, 64)), "-", "156KB")
	t.AddRow("DDT 1K entries, 5b tags", kb(refcount.DDTStorage(1024, 5, 64)), "-", "8.6KB")
	return t
}

func distStorageTAGE() int { return smb.NewTAGEDistance().Storage() }
func distStorageNoSQ() int { return smb.NewNoSQDistance().Storage() }
