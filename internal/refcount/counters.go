package refcount

// PerRegCounters models the conventional scheme the paper argues against
// (§1, §4.2): one reference counter per physical register. Tracking is
// functionally unlimited, but the scheme cannot be checkpointed — a
// counter may have been decremented by a commit older than the checkpoint —
// so a pipeline flush must walk the squashed instructions sequentially
// (in chunks of the commit width) and decrement counters before the
// pipeline can restart.
//
// Functionally it is the ideal tracker, an ISRB with no entry limit (the
// end state of the sequential walk is exactly the checkpoint-restored
// state); the scheme's cost shows up in SquashPenalty, which delays the
// front-end restart after every flush, and in Storage.
type PerRegCounters struct {
	ISRB
	// WalkWidth is how many squashed µops can be processed per recovery
	// cycle (the paper suggests "potentially by chunks").
	WalkWidth int
	// NumPhysRegs sizes the counter array for storage accounting.
	NumPhysRegs int
	// CounterBits is the per-register counter width.
	CounterBits int
}

// NewPerRegCounters builds the per-register counter scheme.
func NewPerRegCounters(numPhysRegs, counterBits, walkWidth int) *PerRegCounters {
	if walkWidth <= 0 {
		walkWidth = 8
	}
	return &PerRegCounters{
		ISRB:        *NewUnlimited(),
		WalkWidth:   walkWidth,
		NumPhysRegs: numPhysRegs,
		CounterBits: counterBits,
	}
}

// Name implements Tracker.
func (c *PerRegCounters) Name() string { return "per-reg-counters" }

// SquashPenalty implements Tracker: the squashed window is walked
// sequentially, WalkWidth µops per cycle, before fetch may resume (§4.2:
// "the pipeline cannot restart immediately because the ROB has to be
// walked sequentially").
func (c *PerRegCounters) SquashPenalty(nSquashed int) uint64 {
	return uint64((nSquashed + c.WalkWidth - 1) / c.WalkWidth)
}

// Storage implements Tracker: one counter per physical register, and
// CheckpointBits 0 because the scheme cannot be checkpointed (that is
// its problem), not because a checkpoint would be free.
func (c *PerRegCounters) Storage() StorageCost {
	return StorageCost{CPUBits: c.NumPhysRegs * c.CounterBits}
}

var _ Tracker = (*PerRegCounters)(nil)
