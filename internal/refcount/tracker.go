// Package refcount implements the paper's register reference counting
// schemes (§4): the contributed Inflight Shared Register Buffer (ISRB),
// an ideal unlimited tracker, per-physical-register counters with
// sequential rollback, Intel's Multiple Instantiation Table (MIT, move
// elimination only) and Apple's Register Duplicate Array (RDA).
//
// The dual-counter rules of §4.3 are implemented once, by ISRB. The
// unlimited tracker is an ISRB with no entry limit and 32-bit counters,
// the paper's ideal reference point (§6.3); the MIT, the RDA and
// per-register counters embed one and change only eligibility, recovery
// latency, name and storage. The hardware ISRB is an N-entry fully
// associative CAM; the model indexes entries by physical register and
// caps how many are valid. That is exact: allocation takes any free entry
// and recovery is a gang operation over all entries, so an entry's
// position is never observable.
//
// All schemes implement Tracker, the contract the rename and commit stages
// use. Sharing is recorded at rename (TryShare), reclaim decisions are made
// at commit (OnCommitOverwrite), and recovery is checkpoint-based
// (Checkpoint/Restore) with a per-scheme extra squash latency
// (SquashPenalty) so the timing difference between gang-restore (ISRB) and
// sequential counter walking (per-register counters) is modelled.
package refcount

import (
	"repro/internal/isa"
	"repro/internal/regfile"
)

// Kind says which optimization wants to share a register.
type Kind uint8

const (
	// KindME is a move-elimination share (both architectural registers
	// are visible in the move instruction).
	KindME Kind = iota
	// KindSMB is a speculative-memory-bypassing share (the producer's
	// architectural register may already be re-renamed, so only the
	// physical register identifies the sharing; §4.2's argument for why
	// the MIT cannot support SMB).
	KindSMB
)

func (k Kind) String() string {
	if k == KindME {
		return "ME"
	}
	return "SMB"
}

// Snapshot is a checkpoint of a table's recoverable state: the
// `referenced` field of every valid entry, with the entry's generation,
// which stands in for the paper's gang-invalidate-on-free rule (§4.3.2).
// Snapshots are immutable, and only the table that took one may restore
// it.
type Snapshot struct {
	owner *ISRB
	refs  []savedRef
}

type savedRef struct {
	p   regfile.PhysReg
	gen uint32
	ref uint32
}

// StorageCost reports a scheme's storage requirements as the paper
// accounts them (§4.3.3).
//
//repro:wire
type StorageCost struct {
	// CPUBits is the always-present storage (e.g., 480 bits for a
	// 32-entry ISRB with 3-bit counters).
	CPUBits int `json:"cpu_bits"`
	// CheckpointBits is the additional storage per checkpoint (e.g., 96
	// bits for a 32-entry ISRB: one 3-bit referenced field per entry),
	// or 0, and absent from the JSON, for a scheme that cannot be
	// checkpointed at all (per-register counters, §4.2).
	CheckpointBits int `json:"checkpoint_bits,omitempty"`
}

// Stats counts tracker activity.
type Stats struct {
	SharesME       uint64 // successful ME shares
	SharesSMB      uint64 // successful SMB shares
	ShareFailsFull uint64 // shares aborted: structure full
	ShareFailsSat  uint64 // shares aborted: counter saturated
	ShareFailsKind uint64 // shares aborted: kind unsupported (MIT vs SMB)
	EntryAllocs    uint64 // new tracking entries allocated
	CommitChecks   uint64 // OnCommitOverwrite probes
	CommitHits     uint64 // probes that matched a tracked register
	Frees          uint64 // tracked registers freed at commit
	RecoveryFrees  uint64 // registers freed during checkpoint recovery
	Restores       uint64 // checkpoint restorations
}

// Tracker is the reference counting contract used by the pipeline.
type Tracker interface {
	// Name identifies the scheme in reports.
	Name() string

	// TryShare records one more in-flight reference to p, created at
	// Rename by a bypass of the given kind. dst is the architectural
	// destination of the bypassing instruction; src is the architectural
	// source for ME (NoReg for SMB). It returns false when the scheme
	// cannot track the share, in which case the bypass must be aborted
	// (the instruction executes normally).
	TryShare(p regfile.PhysReg, kind Kind, dst, src isa.Reg) bool

	// OnCommitOverwrite is invoked when a committing instruction
	// overwrites the architectural mapping arch => p (p is the OLD
	// physical register). It returns true when p is now freeable and
	// must be pushed to the free list by the caller.
	OnCommitOverwrite(p regfile.PhysReg, arch isa.Reg) bool

	// OnCommitShare is invoked when a sharing (bypassing/eliminated)
	// instruction commits: its reference to p becomes architectural.
	// This mirrors the committed counter's role and enables the
	// checkpoint-free commit-level recovery used for flushes at Commit
	// (value-misprediction-style events, §4.1).
	OnCommitShare(p regfile.PhysReg)

	// IsShared reports whether p currently has tracked sharers. The
	// rename stage uses it to set the reclaim-flag filter of §4.3.4.
	IsShared(p regfile.PhysReg) bool

	// Checkpoint captures the recoverable state (taken at every branch).
	// Snapshots are immutable; a caller done with one should hand it to
	// ReleaseSnapshot so its storage can be reused.
	Checkpoint() *Snapshot

	// ReleaseSnapshot returns a snapshot obtained from Checkpoint to the
	// tracker's internal pool. The snapshot must not be used afterwards.
	// Releasing is optional (a dropped snapshot is merely garbage) but
	// keeps steady-state checkpointing allocation-free.
	ReleaseSnapshot(s *Snapshot)

	// Restore rolls the tracker back to s and returns the registers that
	// recovery determined are free now (the committed > referenced case
	// of §4.3.1); the caller pushes them to the free list. The returned
	// slice is scratch owned by the tracker: it is valid only until the
	// next Restore/RestoreToCommit call.
	Restore(s *Snapshot) []regfile.PhysReg

	// RestoreToCommit discards all speculative references, rolling the
	// tracker back to the architectural (committed) reference counts.
	// Used for flushes taking place at Commit, which restore the renamer
	// from the Commit Rename Map with no checkpoint (§4.1). Returns
	// registers freed by the rollback, as a tracker-owned scratch slice
	// with the same lifetime rule as Restore's.
	RestoreToCommit() []regfile.PhysReg

	// SquashPenalty returns the extra recovery cycles the scheme needs
	// beyond restoring renamer checkpoints, given the number of squashed
	// µops. Checkpointable schemes return 0 or 1; per-register counters
	// must walk the squashed instructions sequentially (§4.2).
	SquashPenalty(nSquashed int) uint64

	// Storage reports the paper-style storage accounting.
	Storage() StorageCost

	// Stats exposes the activity counters.
	Stats() *Stats
}
