package core

import (
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/refcount"
	"repro/internal/regfile"
	"repro/internal/workloads"
)

// reversedFrees hands the core the registers each recovery frees in the
// opposite order, and counts the recoveries that freed more than one.
type reversedFrees struct {
	refcount.Tracker
	buf   []regfile.PhysReg
	multi int
}

func (r *reversedFrees) reversed(freed []regfile.PhysReg) []regfile.PhysReg {
	if len(freed) > 1 {
		r.multi++
	}
	r.buf = append(r.buf[:0], freed...)
	slices.Reverse(r.buf)
	return r.buf
}

func (r *reversedFrees) Restore(s *refcount.Snapshot) []regfile.PhysReg {
	return r.reversed(r.Tracker.Restore(s))
}

func (r *reversedFrees) RestoreToCommit() []regfile.PhysReg {
	return r.reversed(r.Tracker.RestoreToCommit())
}

// wrongPathFreesProgram makes branch recovery free registers, the
// Figure 3 case: two stores' data registers lose their last mapping
// before a slow, hard-to-predict branch; loads on its wrong path bypass
// both, and the overwrites commit before the branch resolves.
func wrongPathFreesProgram() *program.Program {
	return loopProgram(func(b *program.Builder) {
		for i, r := range []int{6, 7} {
			b.Emit(program.SInst{Op: isa.ALU, Sem: program.SemAddImm,
				Src: [2]isa.Reg{isa.IntR(0)}, Dest: isa.IntR(r), Imm: uint64(11 + i), Width: 64})
			b.Emit(program.SInst{Op: isa.Store, Sem: program.SemStore,
				Src: [2]isa.Reg{isa.IntR(r)}, AddrReg: isa.IntR(1), Imm: uint64(64 * (i + 1)), Width: 64})
		}
		for _, r := range []int{6, 7} {
			b.Emit(program.SInst{Op: isa.ALU, Sem: program.SemAddImm,
				Src: [2]isa.Reg{isa.IntR(0)}, Dest: isa.IntR(r), Imm: 1, Width: 64})
		}
		b.Emit(program.SInst{Op: isa.MulDiv, Sem: program.SemMulImm, Heavy: true,
			Src: [2]isa.Reg{isa.IntR(5)}, Dest: isa.IntR(5), Imm: 0x9E3779B97F4A7C15, Width: 64})
		b.EmitBranchTo(program.SInst{Op: isa.Branch, Kind: isa.BrCond, Cond: program.CondBitSet,
			Src: [2]isa.Reg{isa.IntR(5)}, Imm: 43, Width: 64}, "sk")
		b.Emit(program.SInst{Op: isa.ALU, Sem: program.SemAddImm,
			Src: [2]isa.Reg{isa.IntR(0)}, Dest: isa.IntR(11), Imm: 3, Width: 64})
		b.Label("sk")
		for i, r := range []int{8, 9} {
			b.Emit(program.SInst{Op: isa.Load, Sem: program.SemLoad,
				Dest: isa.IntR(r), AddrReg: isa.IntR(1), Imm: uint64(64 * (i + 1)), Width: 64})
		}
		b.Emit(program.SInst{Op: isa.ALU, Sem: program.SemAdd,
			Src: [2]isa.Reg{isa.IntR(8), isa.IntR(9)}, Dest: isa.IntR(10), Width: 64})
	})
}

// TestStatsIgnoreRecoveryFreeOrder: which physical register numbers the
// free list hands out next changes no statistic. Recovery returns the
// registers it frees in an order that follows the table's layout, so a
// run whose recoveries free them in the opposite order must report the
// same core and tracker statistics under every scheme. The catalog workloads run
// with lazy reclaim, and their recoveries free no register at all; the
// directed program makes recoveries free two at a time, which takes eager
// reclaim (lazy reclaim defers the overwrites past the branch).
func TestStatsIgnoreRecoveryFreeOrder(t *testing.T) {
	type workload struct {
		name string
		prog *program.Program
		lazy bool
	}
	loads := []workload{{"wrong-path frees", wrongPathFreesProgram(), false}}
	for _, name := range []string{"hmmer", "gamess", "gen:branchy?hard=0.9"} {
		spec, err := workloads.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, workload{name, workloads.Build(spec), true})
	}
	multi := 0
	for _, w := range loads {
		for _, kind := range []TrackerKind{TrackerISRB, TrackerUnlimited, TrackerCounters, TrackerMIT, TrackerRDA} {
			cfg := DefaultConfig()
			cfg.ME.Enabled = true
			cfg.SMB.Enabled = true
			cfg.SMB.BypassCommitted = w.lazy
			cfg.Tracker = TrackerConfig{Kind: kind, Entries: 16, CounterBits: 2}
			c := New(cfg, w.prog)
			st := *c.Run(2_000, 40_000)
			ts := *c.Tracker().Stats()

			c = New(cfg, w.prog)
			rev := &reversedFrees{Tracker: c.tracker}
			c.tracker = rev
			got := *c.Run(2_000, 40_000)
			if gotTracker := *rev.Stats(); got != st || gotTracker != ts {
				t.Errorf("%s on %s: reversed recovery frees changed the run:\n%+v\n%+v\nwant\n%+v\n%+v",
					kind, w.name, got, gotTracker, st, ts)
			}
			multi += rev.multi
		}
	}
	if multi == 0 {
		t.Fatal("no recovery freed more than one register, so reversing changed nothing")
	}
}
