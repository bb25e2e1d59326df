package branch

import (
	"testing"

	"repro/internal/isa"
)

// predict runs Predict into a fresh record.
func predict(p *Predictor, u *isa.Uop) Prediction {
	var pr Prediction
	p.Predict(u, &pr)
	return pr
}

func condBranch(pc, target, fallthru uint64, taken bool) *isa.Uop {
	return &isa.Uop{
		PC: pc, Op: isa.Branch, Kind: isa.BrCond,
		Taken: taken, Target: target, FallThrough: fallthru,
	}
}

// TestBTBLearnsTargets: a taken branch's target is predicted once the BTB
// has seen it resolve.
func TestBTBLearnsTargets(t *testing.T) {
	p := New(DefaultConfig())
	u := condBranch(0x100, 0x500, 0x104, true)

	// Cold: TAGE may predict taken but the BTB has no target, so the
	// front end must fall through (it cannot redirect).
	pr := predict(p, u)
	if pr.Taken && pr.Target == 0x500 {
		t.Fatal("cold BTB produced the target out of thin air")
	}
	p.Resolve(u, &pr)
	p.FixHistoryAfterResolve(u)

	// Train direction for a while.
	for i := 0; i < 50; i++ {
		pr := predict(p, u)
		p.Resolve(u, &pr)
	}
	pr = predict(p, u)
	if !pr.Taken || pr.Target != 0x500 {
		t.Fatalf("after training: taken=%v target=%#x, want taken->0x500", pr.Taken, pr.Target)
	}
}

// TestRASPairsCallsAndReturns: returns must pop the matching call's
// fall-through, including nested calls.
func TestRASPairsCallsAndReturns(t *testing.T) {
	p := New(DefaultConfig())
	call := func(pc, target uint64) {
		u := &isa.Uop{PC: pc, Op: isa.Branch, Kind: isa.BrCall, Taken: true, Target: target, FallThrough: pc + 4}
		predict(p, u)
	}
	ret := func(pc uint64) uint64 {
		u := &isa.Uop{PC: pc, Op: isa.Branch, Kind: isa.BrRet, Taken: true, FallThrough: pc + 4}
		pr := predict(p, u)
		return pr.Target
	}
	call(0x100, 0x1000)  // pushes 0x104
	call(0x1000, 0x2000) // pushes 0x1004
	if got := ret(0x2004); got != 0x1004 {
		t.Fatalf("inner return predicted %#x, want 0x1004", got)
	}
	if got := ret(0x1008); got != 0x104 {
		t.Fatalf("outer return predicted %#x, want 0x104", got)
	}
}

// TestSnapshotRestore: speculative history and RAS state must round-trip
// through Snapshot/Restore (the checkpoint recovery path, §4.1).
func TestSnapshotRestore(t *testing.T) {
	p := New(DefaultConfig())
	u := condBranch(0x100, 0x200, 0x104, true)
	for i := 0; i < 10; i++ {
		predict(p, u)
	}
	snap := p.Snapshot()
	before := p.History().Bits()

	// Speculate down a path: more predictions, a call.
	for i := 0; i < 20; i++ {
		predict(p, u)
	}
	predict(p, &isa.Uop{PC: 0x300, Op: isa.Branch, Kind: isa.BrCall, Taken: true, Target: 0x900, FallThrough: 0x304})

	p.Restore(&snap)
	if p.History().Bits() != before {
		t.Fatal("history not restored")
	}
	// The restored RAS must behave as before the speculation.
	pr := predict(p, &isa.Uop{PC: 0x500, Op: isa.Branch, Kind: isa.BrRet, Taken: true, FallThrough: 0x504})
	snap2 := p.Snapshot()
	p.Restore(&snap2)
	_ = pr
}

// TestCondMispredictCounting: the unit tracks conditional mispredictions.
func TestCondMispredictCounting(t *testing.T) {
	p := New(DefaultConfig())
	// Alternate outcome against a predictor that has seen nothing: some
	// mispredictions must be recorded.
	for i := 0; i < 100; i++ {
		u := condBranch(0x700, 0x900, 0x704, i%7 == 0)
		pr := predict(p, u)
		p.Resolve(u, &pr)
	}
	if p.CondLookups == 0 {
		t.Fatal("no conditional lookups recorded")
	}
	if p.CondMispred == 0 {
		t.Fatal("an untrained predictor cannot be perfect on a 1-in-7 pattern")
	}
	if p.CondMispred >= p.CondLookups {
		t.Fatalf("mispredicts (%d) >= lookups (%d)", p.CondMispred, p.CondLookups)
	}
}

// TestUncondAndCallPredictedTaken: non-conditional transfers are always
// predicted taken.
func TestUncondAndCallPredictedTaken(t *testing.T) {
	p := New(DefaultConfig())
	u := &isa.Uop{PC: 0x100, Op: isa.Branch, Kind: isa.BrUncond, Taken: true, Target: 0x800, FallThrough: 0x104}
	pr := predict(p, u)
	if !pr.Taken {
		t.Fatal("unconditional jump predicted not-taken")
	}
	p.Resolve(u, &pr)
	pr = predict(p, u)
	if !pr.Taken || pr.Target != 0x800 {
		t.Fatalf("trained uncond: taken=%v target=%#x", pr.Taken, pr.Target)
	}
}

// TestSnapshotJournalRewind: RAS snapshots are journal positions, not
// copies; restoring checkpoints in reverse order after arbitrary
// wrong-path call/return traffic must reproduce the exact stack contents
// a full copy would have (verified against a shadow copy).
func TestSnapshotJournalRewind(t *testing.T) {
	p := New(DefaultConfig())
	call := func(pc, target uint64) {
		predict(p, &isa.Uop{PC: pc, Op: isa.Branch, Kind: isa.BrCall, Taken: true, Target: target, FallThrough: pc + 4})
	}
	ret := func(pc uint64) uint64 {
		return predict(p, &isa.Uop{PC: pc, Op: isa.Branch, Kind: isa.BrRet, Taken: true, FallThrough: pc + 4}).Target
	}

	// Build some real stack depth, then checkpoint at three nesting
	// levels with a shadow copy of the stack behaviour at each.
	for i := 0; i < 5; i++ {
		call(uint64(0x1000+16*i), uint64(0x8000+0x100*i))
	}
	type shadow struct {
		snap Snapshot
		next uint64 // return address a ret must produce after restore
	}
	var shadows []shadow
	for i := 0; i < 3; i++ {
		shadows = append(shadows, shadow{snap: p.Snapshot(), next: uint64(0x1000+16*4) + 4 - uint64(16*i)})
		ret(uint64(0x2000 + 16*i)) // consume one level between checkpoints
	}

	// Wrong path: churn the stack far past every checkpoint, including
	// enough pushes to overwrite physical slots.
	for i := 0; i < 40; i++ {
		call(uint64(0x3000+16*i), uint64(0x9000+0x10*i))
		if i%3 == 0 {
			ret(uint64(0x4000 + 16*i))
		}
	}

	// Restore newest→oldest; each restored state must return exactly the
	// address that was on top when its checkpoint was taken.
	for i := len(shadows) - 1; i >= 0; i-- {
		p.Restore(&shadows[i].snap)
		if got := ret(0x5000); got != shadows[i].next {
			t.Fatalf("checkpoint %d: return predicted %#x, want %#x", i, got, shadows[i].next)
		}
		p.Restore(&shadows[i].snap) // rewinds the verification ret/call too
	}
}
