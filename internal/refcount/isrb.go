package refcount

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/regfile"
)

// ISRB is the Inflight Shared Register Buffer of §4.3: a small
// fully-associative buffer tracking only the registers that currently have
// more than one sharer. Each entry holds the physical register identifier
// (the CAM tag) and two never-decremented up-counters:
//
//   - referenced: incremented each time the register is bypassed (ME/SMB)
//     rather than allocated from the Free List;
//   - committed: incremented when an instruction that overwrites an
//     architectural mapping containing the register commits, as long as
//     committed != referenced.
//
// When a commit-side overwrite finds referenced == committed, the register
// and the entry are freed. Only the referenced fields are checkpointed
// (n-bit counters × entries: 96 bits for 32 entries × 3 bits), so recovery
// is a gang copy plus a compare: if the restored referenced is smaller than
// the architectural committed, the register should already have been freed
// and is released during recovery.
//
// The model indexes entries by physical register, keeps the valid ones in
// a dense list, and caps that list at the entry count. This is exact for
// the N-entry CAM: allocation takes any free entry and recovery is a gang
// operation over all entries, so which entry holds a register is never
// observable. Instead of resetting checkpointed fields when an entry is
// freed (the paper's gang-invalidate rule), each entry carries a
// generation; a checkpointed referenced value applies only while the
// generation matches, which behaves identically and keeps snapshots
// immutable.
//
// With no entry limit and 32-bit counters (NewUnlimited) the same table is
// the ideal tracker the paper compares against.
type ISRB struct {
	entries [2][]entry        // per register class, indexed by register number
	tracked []regfile.PhysReg // registers with a valid entry, in no order
	limit   int               // most valid entries at once; 0 = no limit
	ctrMax  uint32
	ctrBits int
	stats   Stats

	pool  []*Snapshot
	freed []regfile.PhysReg // scratch returned by Restore/RestoreToCommit
}

type entry struct {
	ref uint32
	com uint32
	// archRef counts references whose creating instruction has
	// committed. It is architectural state (like com) used only for
	// commit-level flush recovery; it needs no checkpoint storage.
	archRef uint32
	gen     uint32
	saved   uint32 // the referenced value recovery restores
	pos     int32  // index into tracked; -1 when the entry is free
}

// NewISRB builds an ISRB with the given number of entries and counter
// width in bits (the paper finds 3 bits sufficient, §6.3).
func NewISRB(entries, counterBits int) *ISRB {
	if entries <= 0 {
		panic("refcount: ISRB needs at least one entry")
	}
	if counterBits <= 0 || counterBits > 8 {
		panic("refcount: ISRB counter width must be in 1..8")
	}
	return &ISRB{limit: entries, ctrMax: 1<<counterBits - 1, ctrBits: counterBits}
}

// NewUnlimited builds the ideal tracker, an "unlimited ISRB with 32-bit
// fields" (§6.3): every physical register can be tracked and counters do
// not saturate.
func NewUnlimited() *ISRB {
	return &ISRB{ctrMax: math.MaxUint32, ctrBits: 32}
}

// Name implements Tracker.
func (b *ISRB) Name() string {
	if b.limit == 0 {
		return "unlimited"
	}
	return fmt.Sprintf("ISRB-%d", b.limit)
}

// find is the CAM probe: p's entry if it is valid, else nil.
//
//repro:hotpath
func (b *ISRB) find(p regfile.PhysReg) *entry {
	s := b.entries[p.Class()]
	if i := p.Index(); i < len(s) && s[i].pos >= 0 {
		return &s[i]
	}
	return nil
}

//repro:hotpath
func (b *ISRB) untrack(e *entry) {
	last := len(b.tracked) - 1
	moved := b.tracked[last]
	b.tracked[e.pos] = moved
	b.find(moved).pos = e.pos
	b.tracked = b.tracked[:last]
	e.pos = -1
}

// TryShare implements Tracker.
//
//repro:hotpath
func (b *ISRB) TryShare(p regfile.PhysReg, kind Kind, dst, src isa.Reg) bool {
	c, i := p.Class(), p.Index()
	for len(b.entries[c]) <= i {
		b.entries[c] = append(b.entries[c], entry{pos: -1}) //repro:allow hotalloc -- amortized: grows once per register number; steady state never grows
	}
	e := &b.entries[c][i]
	switch {
	case e.pos < 0:
		if b.limit > 0 && len(b.tracked) == b.limit {
			b.stats.ShareFailsFull++
			return false
		}
		e.gen++
		e.ref, e.com, e.archRef = 0, 0, 0
		e.pos = int32(len(b.tracked))
		b.tracked = append(b.tracked, p) //repro:allow hotalloc -- amortized: capacity reaches the most registers ever tracked at once
		b.stats.EntryAllocs++
	case e.ref >= b.ctrMax:
		b.stats.ShareFailsSat++
		return false
	}
	e.ref++
	if kind == KindME {
		b.stats.SharesME++
	} else {
		b.stats.SharesSMB++
	}
	return true
}

// OnCommitOverwrite implements Tracker: the CAM probe the register
// reclaiming hardware performs (§4.3.2, "Register Reclaiming").
//
//repro:hotpath
func (b *ISRB) OnCommitOverwrite(p regfile.PhysReg, arch isa.Reg) bool {
	b.stats.CommitChecks++
	e := b.find(p)
	if e == nil {
		return true // untracked: free normally
	}
	b.stats.CommitHits++
	if e.ref == e.com {
		// Last mapping overwritten: free register and entry.
		b.untrack(e)
		b.stats.Frees++
		return true
	}
	e.com++
	return false
}

// OnCommitShare implements Tracker: a share created at rename became
// architectural.
//
//repro:hotpath
func (b *ISRB) OnCommitShare(p regfile.PhysReg) {
	if e := b.find(p); e != nil && e.archRef < e.ref {
		e.archRef++
	}
}

// IsShared implements Tracker.
//
//repro:hotpath
func (b *ISRB) IsShared(p regfile.PhysReg) bool { return b.find(p) != nil }

// Checkpoint implements Tracker: it captures the referenced field (and
// generation) of every valid entry — n bits × entries of real storage.
// Released snapshots (ReleaseSnapshot) are pooled, so steady-state
// checkpointing performs no allocation.
//
//repro:hotpath
func (b *ISRB) Checkpoint() *Snapshot {
	var s *Snapshot
	if n := len(b.pool); n > 0 {
		s = b.pool[n-1]
		b.pool = b.pool[:n-1]
	} else {
		s = new(Snapshot) //repro:allow hotalloc -- amortized: ReleaseSnapshot refills the pool; steady state reuses pooled snapshots
	}
	s.owner = b
	s.refs = s.refs[:0]
	for _, p := range b.tracked {
		e := b.find(p)
		s.refs = append(s.refs, savedRef{p: p, gen: e.gen, ref: e.ref}) //repro:allow hotalloc -- amortized: a pooled snapshot keeps its capacity
	}
	return s
}

// ReleaseSnapshot implements Tracker, returning a snapshot's storage to
// the pool.
func (b *ISRB) ReleaseSnapshot(s *Snapshot) {
	b.pool = append(b.pool, s)
}

// Restore implements Tracker, applying the recovery rules of §4.3.1/§4.3.2:
// restore referenced from the checkpoint (0 for an entry allocated since,
// as the gang-invalidate leaves it); if the architectural committed
// counter exceeds it, the register missed its freeing opportunity during
// speculation and is released now; if both counters are zero the entry is
// freed (the register is covered by the Free List head restore or by a
// pre-checkpoint commit).
//
//repro:hotpath
func (b *ISRB) Restore(s *Snapshot) []regfile.PhysReg {
	if s.owner != b {
		panic("refcount: Restore given another table's snapshot")
	}
	b.stats.Restores++
	for _, p := range b.tracked {
		b.find(p).saved = 0
	}
	for _, r := range s.refs {
		if e := b.find(r.p); e != nil && e.gen == r.gen {
			e.saved = r.ref
		}
	}
	return b.recover()
}

// RestoreToCommit implements Tracker: roll every entry's referenced count
// back to its architectural value, applying the same freeing rules as
// checkpoint recovery.
//
//repro:hotpath
func (b *ISRB) RestoreToCommit() []regfile.PhysReg {
	for _, p := range b.tracked {
		e := b.find(p)
		e.saved = e.archRef
	}
	return b.recover()
}

// recover applies the recovery rules to every valid entry, with saved as
// the restored referenced value. The returned slice is scratch owned by
// the table, valid until the next recovery.
//
//repro:hotpath
func (b *ISRB) recover() []regfile.PhysReg {
	b.freed = b.freed[:0]
	for i := len(b.tracked) - 1; i >= 0; i-- {
		p := b.tracked[i]
		e := b.find(p)
		switch {
		case e.com > e.saved:
			// The last overwriting instruction should have freed the
			// register; release it during recovery.
			b.untrack(e)
			b.freed = append(b.freed, p) //repro:allow hotalloc -- amortized: appends into a buffer retained on b and resliced to [:0]; steady state never grows
			b.stats.RecoveryFrees++
		case e.saved == 0 && e.com == 0:
			// Wrong-path-only sharing: drop the entry; the register is
			// recovered by the Free List pointer restore or freed by a
			// pre-checkpoint commit.
			b.untrack(e)
		default:
			e.ref = e.saved
			e.archRef = min(e.archRef, e.ref)
		}
	}
	return b.freed
}

// SquashPenalty implements Tracker: restoring checkpointed fields and
// comparing narrow values is a single cycle (§4.3.1, "restoring a correct
// state can be done in a single cycle").
func (b *ISRB) SquashPenalty(int) uint64 { return 1 }

// Storage implements Tracker with the paper's arithmetic (ISRBStorage).
// The unlimited table needs two 32-bit counters for each of the Table 1
// machine's 512 physical registers, and one per register per checkpoint
// — the storage blow-up the paper argues against (§4.2).
func (b *ISRB) Storage() StorageCost {
	if b.limit == 0 {
		const numPhys = 2 * 256
		return StorageCost{CPUBits: numPhys * 64, CheckpointBits: numPhys * 32}
	}
	cpu, ck := ISRBStorage(b.limit, b.ctrBits)
	return StorageCost{CPUBits: cpu, CheckpointBits: ck}
}

// Stats implements Tracker.
func (b *ISRB) Stats() *Stats { return &b.stats }

// Occupancy returns the number of valid entries.
func (b *ISRB) Occupancy() int { return len(b.tracked) }

var _ Tracker = (*ISRB)(nil)
