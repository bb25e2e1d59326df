package regfile

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/rng"
)

func TestPhysRegEncoding(t *testing.T) {
	p := MakePhys(isa.FPReg, 37)
	if p.Class() != isa.FPReg || p.Index() != 37 {
		t.Fatalf("round-trip failed: %v", p)
	}
	q := MakePhys(isa.IntReg, 37)
	if p == q {
		t.Fatal("classes collide in the flat encoding")
	}
	if NoPhysReg.Valid() {
		t.Fatal("NoPhysReg must be invalid")
	}
}

func TestInitialMappings(t *testing.T) {
	f := NewFile(64)
	for i := 0; i < isa.NumArchRegs; i++ {
		if f.RM.Get(isa.IntR(i)) != MakePhys(isa.IntReg, i) {
			t.Fatalf("initial int mapping %d wrong", i)
		}
		if !f.Ready(f.RM.Get(isa.IntR(i))) {
			t.Fatalf("initial register %d not ready", i)
		}
	}
	if f.RM != f.CRM {
		t.Fatal("RM and CRM differ at reset")
	}
	// 64 - 16 architectural = 48 free per class.
	if n := f.FreeList(isa.IntReg).Len(); n != 48 {
		t.Fatalf("initial free count = %d, want 48", n)
	}
}

// TestAllocNeverDuplicates: popping the entire free list yields distinct
// registers, none architectural, each the one Peek announced.
func TestAllocNeverDuplicates(t *testing.T) {
	f := NewFile(64)
	seen := map[PhysReg]bool{}
	for {
		next, peeked := f.FreeList(isa.IntReg).Peek()
		p, ok := f.Alloc(isa.IntReg)
		if peeked != ok || next != p {
			t.Fatalf("Peek = (%v, %v), then Alloc = (%v, %v)", next, peeked, p, ok)
		}
		if !ok {
			break
		}
		if seen[p] {
			t.Fatalf("register %v allocated twice", p)
		}
		if p.Index() < isa.NumArchRegs {
			t.Fatalf("allocated an architectural-reset register %v", p)
		}
		seen[p] = true
	}
	if len(seen) != 48 {
		t.Fatalf("allocated %d registers, want 48", len(seen))
	}
}

// TestHeadRestoreUnpopsWrongPathAllocations: the checkpointed-head
// recovery of §4.1.
func TestHeadRestoreUnpopsWrongPathAllocations(t *testing.T) {
	f := NewFile(64)
	fl := f.FreeList(isa.IntReg)
	head := fl.Head()
	before := fl.Len()

	var popped []PhysReg
	for i := 0; i < 10; i++ {
		p, _ := f.Alloc(isa.IntReg)
		popped = append(popped, p)
	}
	fl.RestoreHead(head)
	f.NoteHeadRestored(isa.IntReg)
	if fl.Len() != before {
		t.Fatalf("free count after restore = %d, want %d", fl.Len(), before)
	}
	// Re-allocation returns the same registers in the same order.
	for i := 0; i < 10; i++ {
		p, _ := f.Alloc(isa.IntReg)
		if p != popped[i] {
			t.Fatalf("re-pop %d = %v, want %v", i, p, popped[i])
		}
	}
}

// TestDoubleFreePanics: the guard that validates the reference counting.
func TestDoubleFreePanics(t *testing.T) {
	f := NewFile(64)
	p, _ := f.Alloc(isa.IntReg)
	f.Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	f.Release(p)
}

// TestValuesAndReadiness: SetReady publishes the value; Alloc clears it.
func TestValuesAndReadiness(t *testing.T) {
	f := NewFile(64)
	p, _ := f.Alloc(isa.IntReg)
	if f.Ready(p) {
		t.Fatal("freshly allocated register is ready")
	}
	f.SetReady(p, 0xDEAD)
	if !f.Ready(p) || f.Value(p) != 0xDEAD {
		t.Fatal("SetReady did not publish the value")
	}
	f.MarkNotReady(p)
	if f.Ready(p) {
		t.Fatal("MarkNotReady did not clear readiness")
	}
}

// TestFreeListConservation: random alloc/free sequences never lose or
// duplicate registers (the invariant behind the 2x-oversized ring).
func TestFreeListConservation(t *testing.T) {
	f := NewFile(40)
	r := rng.New(77)
	live := map[PhysReg]bool{}
	for step := 0; step < 50_000; step++ {
		if r.Bool(0.5) {
			if p, ok := f.Alloc(isa.IntReg); ok {
				if live[p] {
					t.Fatalf("step %d: %v allocated while live", step, p)
				}
				live[p] = true
			}
		} else if len(live) > 0 {
			for p := range live {
				f.Release(p)
				delete(live, p)
				break
			}
		}
		if f.FreeList(isa.IntReg).Len()+len(live) != 40-isa.NumArchRegs {
			t.Fatalf("step %d: conservation broken (free=%d live=%d)",
				step, f.FreeList(isa.IntReg).Len(), len(live))
		}
	}
}

// TestRenameMapValueSemantics: a RenameMap copy is an independent
// checkpoint.
func TestRenameMapValueSemantics(t *testing.T) {
	f := NewFile(64)
	snap := f.RM
	p, _ := f.Alloc(isa.IntReg)
	f.RM.Set(isa.IntR(3), p)
	if snap.Get(isa.IntR(3)) == p {
		t.Fatal("snapshot aliased the live map")
	}
	f.RM = snap
	if f.RM.Get(isa.IntR(3)) != MakePhys(isa.IntReg, 3) {
		t.Fatal("restore failed")
	}
}

func TestRestoreHeadBeyondCurrentPanics(t *testing.T) {
	f := NewFile(64)
	fl := f.FreeList(isa.IntReg)
	defer func() {
		if recover() == nil {
			t.Fatal("RestoreHead beyond head did not panic")
		}
	}()
	fl.RestoreHead(fl.Head() + 1)
}
