package refcount

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/regfile"
	"repro/internal/rng"
)

// The property tests drive random but well-formed sharing histories
// through the trackers, cross-checked against a ground-truth mapping
// model:
//
//   - a register starts with one committed mapping (its allocation);
//   - Share adds a speculative mapping (a rename-time bypass);
//   - CommitShare turns the OLDEST speculative mapping architectural, and
//     only once every checkpoint older than the share has been released
//     (in-order commit: an instruction younger than an in-flight branch
//     cannot retire before it);
//   - OverwriteCommit removes one committed mapping; the tracker must
//     free the register exactly when no mappings remain;
//   - Checkpoint/Restore snapshot and roll back speculative mappings;
//     ReleaseCheckpoint models the owning branch retiring.
//
// This is the invariant the paper rests on: shared registers are freed
// exactly once, never while live, and never leak (§4.3).

type share struct {
	born uint64 // id of the youngest checkpoint outstanding at creation
}

type driver struct {
	t       *testing.T
	tr      Tracker
	r       *rng.RNG
	nRegs   int
	commits []int     // committed mappings per register
	specs   [][]share // speculative shares per register, oldest first
	shares  []int     // total references this register life
	freed   []bool

	ckptIDs   []uint64 // outstanding checkpoint ids, oldest first
	ckptSnaps []*Snapshot
	nextID    uint64
}

func newDriver(t *testing.T, tr Tracker, seed uint64, nRegs int) *driver {
	d := &driver{
		t:       t,
		tr:      tr,
		r:       rng.New(seed),
		nRegs:   nRegs,
		commits: make([]int, nRegs),
		specs:   make([][]share, nRegs),
		shares:  make([]int, nRegs),
		freed:   make([]bool, nRegs),
		nextID:  1,
	}
	for i := range d.commits {
		d.commits[i] = 1 // allocation's own mapping
	}
	return d
}

func (d *driver) reg(i int) regfile.PhysReg { return regfile.MakePhys(isa.IntReg, i) }

func (d *driver) youngestCkpt() uint64 {
	if len(d.ckptIDs) == 0 {
		return 0
	}
	return d.ckptIDs[len(d.ckptIDs)-1]
}

func (d *driver) oldestCkpt() uint64 {
	if len(d.ckptIDs) == 0 {
		return ^uint64(0)
	}
	return d.ckptIDs[0]
}

func (d *driver) live(i int) int { return d.commits[i] + len(d.specs[i]) }

func (d *driver) step(n int) {
	i := d.r.Intn(d.nRegs)
	switch d.r.Intn(12) {
	case 0, 1, 2: // Share
		// Cap total references per register life so fixed-width (4-bit)
		// up-counters stay unsaturated: the property under test is ideal
		// behaviour, saturation is tested separately.
		if d.freed[i] || d.live(i) == 0 || d.shares[i] >= 12 {
			return
		}
		d.shares[i]++
		if !d.tr.TryShare(d.reg(i), KindSMB, isa.IntR(d.r.Intn(16)), isa.NoReg) {
			d.t.Fatalf("step %d: TryShare rejected on amply sized tracker", n)
		}
		d.specs[i] = append(d.specs[i], share{born: d.youngestCkpt()})
	case 3, 4: // CommitShare (oldest share, only if older than all ckpts)
		if len(d.specs[i]) == 0 || d.specs[i][0].born >= d.oldestCkpt() {
			return
		}
		d.tr.OnCommitShare(d.reg(i))
		d.specs[i] = d.specs[i][1:]
		d.commits[i]++
	case 5, 6, 7: // OverwriteCommit
		if d.freed[i] || d.commits[i] == 0 {
			return
		}
		free := d.tr.OnCommitOverwrite(d.reg(i), isa.IntR(d.r.Intn(16)))
		d.commits[i]--
		wantFree := d.commits[i] == 0 && len(d.specs[i]) == 0
		if free != wantFree {
			d.t.Fatalf("step %d: OnCommitOverwrite(reg %d) = %v, want %v (c=%d s=%d)",
				n, i, free, wantFree, d.commits[i], len(d.specs[i]))
		}
		if free {
			d.freed[i] = true
		}
	case 8, 9: // Checkpoint
		if len(d.ckptIDs) > 6 {
			return
		}
		d.ckptIDs = append(d.ckptIDs, d.nextID)
		d.ckptSnaps = append(d.ckptSnaps, d.tr.Checkpoint())
		d.nextID++
	case 10: // ReleaseCheckpoint (oldest branch retires)
		if len(d.ckptIDs) == 0 {
			return
		}
		d.ckptIDs = d.ckptIDs[1:]
		d.ckptSnaps = d.ckptSnaps[1:]
	case 11: // Restore to a random outstanding checkpoint
		if len(d.ckptIDs) == 0 {
			return
		}
		k := d.r.Intn(len(d.ckptIDs))
		id := d.ckptIDs[k]
		freed := d.tr.Restore(d.ckptSnaps[k])
		// Roll back shares created at or after checkpoint id.
		for j := range d.specs {
			keep := d.specs[j][:0]
			for _, s := range d.specs[j] {
				if s.born < id {
					keep = append(keep, s)
				}
			}
			d.specs[j] = keep
		}
		seen := map[int]bool{}
		for _, p := range freed {
			j := p.Index()
			if seen[j] {
				d.t.Fatalf("step %d: register %d freed twice in one recovery", n, j)
			}
			seen[j] = true
			if d.freed[j] {
				d.t.Fatalf("step %d: register %d freed but already free", n, j)
			}
			if d.commits[j] != 0 || len(d.specs[j]) != 0 {
				d.t.Fatalf("step %d: register %d freed with live mappings (c=%d s=%d)",
					n, j, d.commits[j], len(d.specs[j]))
			}
			d.freed[j] = true
		}
		// Registers that SHOULD have been freed (no mappings left, had
		// tracked overwrites masked by squashed shares) must be in the
		// freed set: nothing may leak.
		for j := range d.commits {
			if d.freed[j] || d.commits[j] != 0 || len(d.specs[j]) != 0 {
				continue
			}
			// commits hit zero while shares were outstanding; those
			// shares are gone now. The tracker must have freed it.
			d.t.Fatalf("step %d: register %d leaked after restore", n, j)
		}
		d.ckptIDs = d.ckptIDs[:k]
		d.ckptSnaps = d.ckptSnaps[:k]
	}
}

func runShareHistory(t *testing.T, tr Tracker, seed uint64, steps int) {
	t.Helper()
	d := newDriver(t, tr, seed, 12)
	for n := 0; n < steps; n++ {
		d.step(n)
	}
}

func TestISRBShareHistoryProperty(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		runShareHistory(t, NewISRB(64, 8), seed, 2500)
	}
}

func TestUnlimitedShareHistoryProperty(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		runShareHistory(t, NewUnlimited(), seed, 2500)
	}
}

func TestPerRegCountersShareHistoryProperty(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		runShareHistory(t, NewPerRegCounters(512, 8, 8), seed, 2000)
	}
}

func TestRDAShareHistoryProperty(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		runShareHistory(t, NewRDA(64), seed, 2000)
	}
}

// TestISRBAgreesWithUnlimited: a table that stays below its entry limit
// and counter maximum behaves like the unlimited one. It drives identical
// histories through both and requires identical free decisions and
// identical restore free-sets, register by register.
func TestISRBAgreesWithUnlimited(t *testing.T) {
	for seed := uint64(100); seed < 140; seed++ {
		a := NewISRB(64, 8)
		b := NewUnlimited()
		da := newDriver(t, a, seed, 10)
		db := newDriver(t, b, seed, 10)
		for n := 0; n < 2500; n++ {
			da.step(n)
			db.step(n)
			for i := 0; i < 10; i++ {
				if a.IsShared(da.reg(i)) != b.IsShared(db.reg(i)) {
					t.Fatalf("seed %d step %d: IsShared(reg %d) disagreement", seed, n, i)
				}
			}
		}
	}
}
