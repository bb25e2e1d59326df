package refcount

// Equivalence property test for the ISRB's flat sparse-set layout, run
// with no limits (NewUnlimited): a map[PhysReg]*entry representation is
// kept here as an executable reference model, and randomized
// share/commit/checkpoint/recovery programs must drive both through
// identical observable behaviour (return values, tracked sets, freed
// sets, conservation).

import (
	"sort"
	"testing"

	"repro/internal/isa"
	"repro/internal/regfile"
	"repro/internal/rng"
)

// mapUnlimited is the unlimited tracker as a map of entries with map
// snapshots, the semantic oracle.
type mapUnlimited struct {
	m      map[regfile.PhysReg]*mapUnlEntry
	allocs uint64
	drops  uint64 // entries discarded without freeing a register
	frees  uint64 // commit-time + recovery frees
}

type mapUnlEntry struct {
	ref     uint32
	com     uint32
	archRef uint32
	gen     uint32
}

type mapUnlSnap struct {
	gen uint32
	ref uint32
}

type mapUnlimitedSnapshot map[regfile.PhysReg]mapUnlSnap

func newMapUnlimited() *mapUnlimited {
	return &mapUnlimited{m: make(map[regfile.PhysReg]*mapUnlEntry)}
}

func (u *mapUnlimited) tryShare(p regfile.PhysReg) {
	e := u.m[p]
	if e == nil {
		e = &mapUnlEntry{gen: uint32(u.allocs<<1 | 1)}
		u.m[p] = e
		u.allocs++
	}
	e.ref++
}

func (u *mapUnlimited) onCommitOverwrite(p regfile.PhysReg) bool {
	e := u.m[p]
	if e == nil {
		return true
	}
	if e.ref == e.com {
		delete(u.m, p)
		u.frees++
		return true
	}
	e.com++
	return false
}

func (u *mapUnlimited) onCommitShare(p regfile.PhysReg) {
	if e := u.m[p]; e != nil && e.archRef < e.ref {
		e.archRef++
	}
}

func (u *mapUnlimited) checkpoint() mapUnlimitedSnapshot {
	s := make(mapUnlimitedSnapshot, len(u.m))
	for p, e := range u.m {
		s[p] = mapUnlSnap{gen: e.gen, ref: e.ref}
	}
	return s
}

func (u *mapUnlimited) restore(snap mapUnlimitedSnapshot) []regfile.PhysReg {
	var freed []regfile.PhysReg
	for p, e := range u.m {
		ref := uint32(0)
		if sv, ok := snap[p]; ok && sv.gen == e.gen {
			ref = sv.ref
		}
		switch {
		case e.com > ref:
			delete(u.m, p)
			freed = append(freed, p)
			u.frees++
		case ref == 0 && e.com == 0:
			delete(u.m, p)
			u.drops++
		default:
			e.ref = ref
			if e.archRef > e.ref {
				e.archRef = e.ref
			}
		}
	}
	return freed
}

func (u *mapUnlimited) restoreToCommit() []regfile.PhysReg {
	var freed []regfile.PhysReg
	for p, e := range u.m {
		ref := e.archRef
		switch {
		case e.com > ref:
			delete(u.m, p)
			freed = append(freed, p)
			u.frees++
		case ref == 0 && e.com == 0:
			delete(u.m, p)
			u.drops++
		default:
			e.ref = ref
		}
	}
	return freed
}

func sortedRegs(ps []regfile.PhysReg) []regfile.PhysReg {
	out := append([]regfile.PhysReg(nil), ps...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameRegSet(a, b []regfile.PhysReg) bool {
	a, b = sortedRegs(a), sortedRegs(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestUnlimitedFlatMatchesMapModel drives the unlimited table and the map
// oracle through randomized programs with checkpoint recovery and
// flush-at-commit (trap-style) events, comparing every observable after
// every step.
func TestUnlimitedFlatMatchesMapModel(t *testing.T) {
	const nRegs = 48
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		flat := NewUnlimited()
		model := newMapUnlimited()

		type ckptPair struct {
			flat *Snapshot
			mod  mapUnlimitedSnapshot
		}
		var ckpts []ckptPair

		reg := func() regfile.PhysReg {
			return regfile.MakePhys(isa.RegClass(r.Intn(2)), r.Intn(nRegs))
		}
		for step := 0; step < 3000; step++ {
			switch op := r.Intn(100); {
			case op < 40: // share
				p := reg()
				flat.TryShare(p, KindME, isa.IntR(0), isa.IntR(1))
				model.tryShare(p)
			case op < 65: // commit-side overwrite
				p := reg()
				if got, want := flat.OnCommitOverwrite(p, isa.IntR(0)), model.onCommitOverwrite(p); got != want {
					t.Fatalf("seed %d step %d: OnCommitOverwrite(%v) = %v, model says %v", seed, step, p, got, want)
				}
			case op < 80: // a share's creator commits
				p := reg()
				flat.OnCommitShare(p)
				model.onCommitShare(p)
			case op < 90: // take a checkpoint
				ckpts = append(ckpts, ckptPair{flat: flat.Checkpoint(), mod: model.checkpoint()})
			case op < 97: // recover to a random live checkpoint (and discard younger ones)
				if len(ckpts) == 0 {
					continue
				}
				k := r.Intn(len(ckpts))
				gotFreed := flat.Restore(ckpts[k].flat)
				wantFreed := model.restore(ckpts[k].mod)
				if !sameRegSet(gotFreed, wantFreed) {
					t.Fatalf("seed %d step %d: Restore freed %v, model freed %v", seed, step, gotFreed, wantFreed)
				}
				for _, dead := range ckpts[k+1:] {
					flat.ReleaseSnapshot(dead.flat)
				}
				ckpts = ckpts[:k+1]
			default: // flush at commit
				gotFreed := flat.RestoreToCommit()
				wantFreed := model.restoreToCommit()
				if !sameRegSet(gotFreed, wantFreed) {
					t.Fatalf("seed %d step %d: RestoreToCommit freed %v, model freed %v", seed, step, gotFreed, wantFreed)
				}
				for _, dead := range ckpts {
					flat.ReleaseSnapshot(dead.flat)
				}
				ckpts = ckpts[:0]
			}

			// Observable equivalence after every step.
			if flat.Occupancy() != len(model.m) {
				t.Fatalf("seed %d step %d: tracked %d, model %d", seed, step, flat.Occupancy(), len(model.m))
			}
			for c := 0; c < 2; c++ {
				for i := 0; i < nRegs; i++ {
					p := regfile.MakePhys(isa.RegClass(c), i)
					_, inModel := model.m[p]
					if flat.IsShared(p) != inModel {
						t.Fatalf("seed %d step %d: IsShared(%v) = %v, model %v", seed, step, p, flat.IsShared(p), inModel)
					}
				}
			}
			// Conservation: every allocated entry is still live, was freed
			// (register released), or was dropped with its register covered
			// elsewhere — nothing leaks and nothing double-counts.
			if model.allocs-model.frees-model.drops != uint64(len(model.m)) {
				t.Fatalf("seed %d step %d: conservation broken: allocs=%d frees=%d drops=%d live=%d",
					seed, step, model.allocs, model.frees, model.drops, len(model.m))
			}
			if st := flat.Stats(); st.EntryAllocs != model.allocs {
				t.Fatalf("seed %d step %d: EntryAllocs %d, model %d", seed, step, st.EntryAllocs, model.allocs)
			}
		}
	}
}
