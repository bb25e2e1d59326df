package refcount

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// --- MIT ----------------------------------------------------------------

func TestMITAcceptsMEOnly(t *testing.T) {
	m := NewMIT(8)
	if !m.TryShare(preg(1), KindME, isa.IntR(1), isa.IntR(0)) {
		t.Fatal("MIT rejected a move elimination share")
	}
	if m.TryShare(preg(2), KindSMB, isa.IntR(2), isa.NoReg) {
		t.Fatal("MIT accepted an SMB share (architectural-name tracking cannot, §4.2)")
	}
	if m.Stats().ShareFailsKind != 1 {
		t.Fatalf("ShareFailsKind = %d, want 1", m.Stats().ShareFailsKind)
	}
	if !m.IsShared(preg(1)) || m.IsShared(preg(2)) {
		t.Fatal("IsShared wrong after mixed shares")
	}
}

func TestMITFreeingSemantics(t *testing.T) {
	m := NewMIT(8)
	m.TryShare(preg(3), KindME, isa.IntR(1), isa.IntR(0))
	if m.OnCommitOverwrite(preg(3), isa.IntR(0)) {
		t.Fatal("freed after first of two overwrites")
	}
	if !m.OnCommitOverwrite(preg(3), isa.IntR(1)) {
		t.Fatal("not freed after the final overwrite")
	}
}

func TestMITCheckpointRestore(t *testing.T) {
	m := NewMIT(8)
	snap := m.Checkpoint()
	m.TryShare(preg(4), KindME, isa.IntR(1), isa.IntR(0))
	freed := m.Restore(snap)
	if len(freed) != 0 || m.IsShared(preg(4)) {
		t.Fatal("wrong-path-only ME share survived restore")
	}
	if m.SquashPenalty(100) != 1 {
		t.Fatal("MIT modelled as checkpointable must recover in one cycle")
	}
}

func TestMITStorageAccounting(t *testing.T) {
	m := NewMIT(16)
	st := m.Storage()
	// Per checkpoint: #arch_reg bits per entry (§4.2) = 32 × 16 = 512.
	if st.CheckpointBits != 16*2*isa.NumArchRegs {
		t.Fatalf("MIT checkpoint bits = %d, want %d", st.CheckpointBits, 16*2*isa.NumArchRegs)
	}
	// More checkpoint storage per entry than the ISRB's 3 bits.
	_, isrbCk := ISRBStorage(16, 3)
	if st.CheckpointBits <= isrbCk {
		t.Fatal("MIT checkpoint must exceed the ISRB's (the paper's §4.2 point)")
	}
	if !strings.HasPrefix(m.Name(), "MIT") {
		t.Fatalf("Name = %q", m.Name())
	}
}

// --- RDA ----------------------------------------------------------------

func TestRDAUntrackedCommitsAreFree(t *testing.T) {
	r := NewRDA(8)
	if !r.OnCommitOverwrite(preg(9), isa.IntR(0)) {
		t.Fatal("untracked register not freed")
	}
}

func TestRDACheckpointRestoreAndStorage(t *testing.T) {
	r := NewRDA(8)
	r.TryShare(preg(2), KindSMB, isa.IntR(1), isa.NoReg)
	snap := r.Checkpoint()
	r.TryShare(preg(2), KindSMB, isa.IntR(2), isa.NoReg)
	if freed := r.Restore(snap); len(freed) != 0 {
		t.Fatalf("restore freed %v", freed)
	}
	if !r.IsShared(preg(2)) {
		t.Fatal("pre-checkpoint share lost")
	}
	if r.SquashPenalty(50) != 1 {
		t.Fatal("RDA is checkpointable: one-cycle recovery")
	}
	st := r.Storage()
	if st.CPUBits <= 0 || st.CheckpointBits <= 0 {
		t.Fatal("RDA storage must be positive")
	}
	if freed := r.RestoreToCommit(); len(freed) != 0 {
		t.Fatalf("RestoreToCommit freed %v", freed)
	}
	if r.IsShared(preg(2)) {
		t.Fatal("speculative-only share survived commit-level restore")
	}
	if !strings.HasPrefix(r.Name(), "RDA") {
		t.Fatalf("Name = %q", r.Name())
	}
}

// --- per-register counters ----------------------------------------------

func TestPerRegCountersWalkPenalty(t *testing.T) {
	c := NewPerRegCounters(512, 2, 8)
	cases := []struct {
		n    int
		want uint64
	}{{0, 0}, {1, 1}, {8, 1}, {9, 2}, {191, 24}}
	for _, cs := range cases {
		if got := c.SquashPenalty(cs.n); got != cs.want {
			t.Errorf("SquashPenalty(%d) = %d, want %d", cs.n, got, cs.want)
		}
	}
	if c.Name() != "per-reg-counters" {
		t.Fatalf("Name = %q", c.Name())
	}
	st := c.Storage()
	if st.CPUBits != 512*2 {
		t.Fatalf("CPU bits = %d, want 1024", st.CPUBits)
	}
	if st.CheckpointBits != 0 {
		t.Fatal("per-register counters cannot be checkpointed (§4.2)")
	}
	if NewPerRegCounters(512, 2, 0).WalkWidth != 8 {
		t.Fatal("zero walk width must default to the commit width")
	}
}

// --- unlimited ----------------------------------------------------------

func TestUnlimitedOccupancyAndName(t *testing.T) {
	u := NewUnlimited()
	if u.Name() != "unlimited" || u.Occupancy() != 0 {
		t.Fatal("fresh tracker state wrong")
	}
	u.TryShare(preg(1), KindME, isa.IntR(1), isa.IntR(0))
	u.TryShare(preg(2), KindSMB, isa.IntR(2), isa.NoReg)
	if u.Occupancy() != 2 {
		t.Fatalf("Occupancy = %d", u.Occupancy())
	}
	if u.Stats().SharesME != 1 || u.Stats().SharesSMB != 1 {
		t.Fatal("share kind accounting wrong")
	}
	if u.Storage().CPUBits <= 0 {
		t.Fatal("ideal tracker storage must be positive (the cost argument of §4.2)")
	}
}

// TestUnlimitedForeignSnapshotPanics: an unlimited table takes back only its
// own snapshots, not another unlimited table's nor an ISRB's.
func TestUnlimitedForeignSnapshotPanics(t *testing.T) {
	assertForeignSnapshotsPanic(t, [][2]Tracker{
		{NewUnlimited(), NewUnlimited()},
		{NewUnlimited(), NewISRB(4, 3)},
	})
}

// TestISRBForeignSnapshotPanics: a snapshot restores only into the table
// instance that took it, even one of the same size.
func TestISRBForeignSnapshotPanics(t *testing.T) {
	assertForeignSnapshotsPanic(t, [][2]Tracker{
		{NewISRB(4, 3), NewISRB(4, 3)},
		{NewISRB(4, 3), NewUnlimited()},
	})
}

// assertForeignSnapshotsPanic restores, for each pair, a snapshot of the
// second tracker into the first and fails unless that panics.
func assertForeignSnapshotsPanic(t *testing.T, pairs [][2]Tracker) {
	t.Helper()
	for _, pair := range pairs {
		into, from := pair[0], pair[1]
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted a snapshot of %s", into.Name(), from.Name())
				}
			}()
			into.Restore(from.Checkpoint())
		}()
	}
}

// --- storage calculators --------------------------------------------------

func TestStorageCalculators(t *testing.T) {
	cpu, ck := BattleMatrix(336, 4)
	if cpu != 336*4 || ck != cpu {
		t.Fatalf("BattleMatrix = %d/%d", cpu, ck)
	}
	if DDTStorage(1024, 5, 64) != 1024*69 {
		t.Fatal("DDTStorage arithmetic wrong")
	}
	if KB(8192*8) != 8 {
		t.Fatalf("KB(65536 bits) = %v", KB(8192*8))
	}
	if CountersCheckpointBits(336, 2) != 672 {
		t.Fatal("CountersCheckpointBits wrong")
	}
}

func TestNewISRBValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewISRB(0, 3) },
		func() { NewISRB(8, 0) },
		func() { NewISRB(8, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid ISRB parameters accepted")
				}
			}()
			f()
		}()
	}
}

func TestKindString(t *testing.T) {
	if KindME.String() != "ME" || KindSMB.String() != "SMB" {
		t.Fatal("Kind strings wrong")
	}
}
