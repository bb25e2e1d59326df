package refcount

import "fmt"

// RDA models Apple's Register Duplicate Array (Sundar et al. patent,
// §4.2): a small fully-associative buffer whose entries each hold a single
// reference counter. Unlike the MIT it can track any sharing (including
// SMB), but making the single counter checkpoint-safe requires updating
// the counter in *every* outstanding checkpoint whenever a tracked mapping
// commits — up to n counter updates per retiring instruction with n live
// checkpoints, write traffic the ISRB avoids by keeping its committed
// counter only in the CPU copy. That traffic costs write ports and
// energy, not cycles, and no result reports it, so it is not modelled.
//
// Functional tracking and recovery reuse the dual-counter mechanics.
type RDA struct {
	ISRB
}

// NewRDA builds an RDA with the given number of entries.
func NewRDA(entries int) *RDA {
	return &RDA{ISRB: *NewISRB(entries, 4)}
}

// Name implements Tracker.
func (r *RDA) Name() string { return fmt.Sprintf("RDA-%d", r.limit) }

// Storage implements Tracker: per entry a tag, a valid bit and ONE counter
// in the CPU copy, but each checkpoint replicates the full counter per
// entry (the counters are kept coherent by commit-side updates).
func (r *RDA) Storage() StorageCost {
	const ctr = 4
	return StorageCost{
		CPUBits:        r.limit * (8 + 1 + ctr),
		CheckpointBits: r.limit * ctr,
	}
}

var _ Tracker = (*RDA)(nil)
