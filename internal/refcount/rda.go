package refcount

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/regfile"
)

// RDA models Apple's Register Duplicate Array (Sundar et al. patent,
// §4.2): a small fully-associative buffer whose entries each hold a single
// reference counter. Unlike the MIT it can track any sharing (including
// SMB), but making the single counter checkpoint-safe requires updating
// the counter in *every* outstanding checkpoint whenever a tracked mapping
// commits — up to n counter updates per retiring instruction with n live
// checkpoints. CheckpointUpdateOps counts that commit-side write traffic,
// which is the scheme's cost relative to the ISRB (whose committed counter
// lives only in the CPU copy).
//
// Functional tracking and recovery reuse the dual-counter mechanics.
type RDA struct {
	ISRB
	// liveCheckpoints tracks how many checkpoints currently exist; the
	// core updates it via NoteLiveCheckpoints.
	liveCheckpoints int
	// CheckpointUpdateOps accumulates commit-side checkpoint counter
	// updates (decrements × live checkpoints).
	CheckpointUpdateOps uint64
}

// NewRDA builds an RDA with the given number of entries.
func NewRDA(entries int) *RDA {
	return &RDA{ISRB: *NewISRB(entries, 4)}
}

// Name implements Tracker.
func (r *RDA) Name() string { return fmt.Sprintf("RDA-%d", r.NumEntries()) }

// NoteLiveCheckpoints informs the RDA how many checkpoints are currently
// outstanding; the core calls it whenever the count changes.
func (r *RDA) NoteLiveCheckpoints(n int) { r.liveCheckpoints = n }

// OnCommitOverwrite implements Tracker, accumulating the commit-side
// checkpoint maintenance the patent requires.
func (r *RDA) OnCommitOverwrite(p regfile.PhysReg, arch isa.Reg) bool {
	if r.IsShared(p) {
		r.CheckpointUpdateOps += uint64(r.liveCheckpoints)
	}
	return r.ISRB.OnCommitOverwrite(p, arch)
}

// OnCommitShare implements Tracker.
func (r *RDA) OnCommitShare(p regfile.PhysReg) {
	if r.IsShared(p) {
		r.CheckpointUpdateOps += uint64(r.liveCheckpoints)
	}
	r.ISRB.OnCommitShare(p)
}

// Storage implements Tracker: per entry a tag, a valid bit and ONE counter
// in the CPU copy, but each checkpoint replicates the full counter per
// entry (the counters are kept coherent by commit-side updates).
func (r *RDA) Storage() StorageCost {
	n := r.NumEntries()
	const ctr = 4
	return StorageCost{
		CPUBits:        n * (8 + 1 + ctr),
		CheckpointBits: n * ctr,
	}
}

var _ Tracker = (*RDA)(nil)
