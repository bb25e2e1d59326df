package program

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
)

// buildCounterLoop builds: r0 = 0; loop: r0 += 1; if r0 < n goto loop;
// then an unconditional self-loop at "end".
func buildCounterLoop(n uint64) *Program {
	b := NewBuilder("counter", 0x1000)
	b.Emit(SInst{Op: isa.ALU, Sem: SemMovImm, Dest: isa.IntR(0), Imm: 0, Width: 64})
	b.Label("loop")
	b.Emit(SInst{Op: isa.ALU, Sem: SemAddImm, Src: [2]isa.Reg{isa.IntR(0)}, Dest: isa.IntR(0), Imm: 1, Width: 64})
	b.EmitBranchTo(SInst{Op: isa.Branch, Kind: isa.BrCond, Cond: CondLTImm,
		Src: [2]isa.Reg{isa.IntR(0)}, Imm: n, Width: 64}, "loop")
	b.Label("end")
	b.EmitBranchTo(SInst{Op: isa.Branch, Kind: isa.BrUncond, Cond: CondAlways, Width: 64}, "end")
	return b.MustBuild()
}

func TestExecutorCounterLoop(t *testing.T) {
	p := buildCounterLoop(5)
	e := NewExecutor(p)
	var u isa.Uop
	takenCount := 0
	for i := 0; i < 50; i++ {
		if !e.Next(&u) {
			t.Fatal("executor ran off code")
		}
		if u.Op == isa.Branch && u.Kind == isa.BrCond && u.Taken {
			takenCount++
		}
		if u.Op == isa.Branch && u.Kind == isa.BrUncond {
			break
		}
	}
	// r0: 1..5; branch taken while r0 < 5, i.e., for r0=1..4.
	if takenCount != 4 {
		t.Fatalf("loop branch taken %d times, want 4", takenCount)
	}
}

// TestInitMemUnaligned: a seed at an address no load can reach fails
// the build, naming the address, instead of vanishing.
func TestInitMemUnaligned(t *testing.T) {
	b := NewBuilder("unaligned", 0x1000)
	b.InitMem(0x8000, 1).InitMem(0x8004, 2)
	b.Emit(SInst{Op: isa.ALU, Sem: SemNop})
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "0x8004") {
		t.Fatalf("Build = %v, want an error naming 0x8004", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic")
		}
	}()
	b.MustBuild()
}

// TestInitMemImage: the image keeps the last value seeded at each
// address, stored zeros included, and reads back in address order; an
// executor's stores never reach it.
func TestInitMemImage(t *testing.T) {
	b := NewBuilder("image", 0x1000)
	b.InitMem(0x9000, 3).InitMem(0x8000, 0).InitMem(0x10_0000, 7).InitMem(0x9000, 4)
	b.Emit(SInst{Op: isa.ALU, Sem: SemMovImm, Dest: isa.IntR(1), Imm: 0x8000, Width: 64})
	b.Emit(SInst{Op: isa.ALU, Sem: SemMovImm, Dest: isa.IntR(2), Imm: 5, Width: 64})
	b.Emit(SInst{Op: isa.Store, Sem: SemStore, Src: [2]isa.Reg{isa.IntR(2)}, AddrReg: isa.IntR(1), Imm: 0, Width: 64})
	p := b.MustBuild()
	e := NewExecutor(p)
	var u isa.Uop
	for i := 0; i < 3; i++ {
		e.Next(&u)
	}
	var got [][2]uint64
	for a, v := range p.InitMem() {
		got = append(got, [2]uint64{a, v})
	}
	want := [][2]uint64{{0x8000, 0}, {0x9000, 4}, {0x10_0000, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("InitMem = %v, want %v", got, want)
	}
}

func TestExecutorMemory(t *testing.T) {
	b := NewBuilder("mem", 0x1000)
	b.InitMem(0x8000, 99)
	b.Emit(SInst{Op: isa.ALU, Sem: SemMovImm, Dest: isa.IntR(1), Imm: 0x8000, Width: 64})
	b.Emit(SInst{Op: isa.Load, Sem: SemLoad, Dest: isa.IntR(2), AddrReg: isa.IntR(1), Imm: 0, Width: 64})
	b.Emit(SInst{Op: isa.ALU, Sem: SemAddImm, Src: [2]isa.Reg{isa.IntR(2)}, Dest: isa.IntR(3), Imm: 1, Width: 64})
	b.Emit(SInst{Op: isa.Store, Sem: SemStore, Src: [2]isa.Reg{isa.IntR(3)}, AddrReg: isa.IntR(1), Imm: 8, Width: 64})
	b.Emit(SInst{Op: isa.Load, Sem: SemLoad, Dest: isa.IntR(4), AddrReg: isa.IntR(1), Imm: 8, Width: 64})
	b.Label("spin")
	b.EmitBranchTo(SInst{Op: isa.Branch, Kind: isa.BrUncond, Cond: CondAlways, Width: 64}, "spin")
	p := b.MustBuild()

	e := NewExecutor(p)
	var u isa.Uop
	var vals []uint64
	for i := 0; i < 5; i++ {
		e.Next(&u)
		vals = append(vals, u.Value)
	}
	if vals[1] != 99 {
		t.Fatalf("load read %d, want 99 (InitMem)", vals[1])
	}
	if vals[3] != 100 {
		t.Fatalf("store wrote %d, want 100", vals[3])
	}
	if vals[4] != 100 {
		t.Fatalf("reload read %d, want 100", vals[4])
	}
}

func TestExecutorMoveZeroExtend(t *testing.T) {
	b := NewBuilder("mov", 0x1000)
	b.Emit(SInst{Op: isa.ALU, Sem: SemMovImm, Dest: isa.IntR(0), Imm: 0xFFFF_FFFF_1234_5678, Width: 64})
	b.Emit(SInst{Op: isa.Move, Sem: SemMov, Src: [2]isa.Reg{isa.IntR(0)}, Dest: isa.IntR(1), Width: 32})
	b.Emit(SInst{Op: isa.Move, Sem: SemMov, Src: [2]isa.Reg{isa.IntR(0)}, Dest: isa.IntR(2), Width: 64})
	b.Label("spin")
	b.EmitBranchTo(SInst{Op: isa.Branch, Kind: isa.BrUncond, Cond: CondAlways, Width: 64}, "spin")
	p := b.MustBuild()
	e := NewExecutor(p)
	var u isa.Uop
	e.Next(&u)
	e.Next(&u)
	if u.Value != 0x1234_5678 {
		t.Fatalf("32-bit move = %#x, want zero-extended low half", u.Value)
	}
	e.Next(&u)
	if u.Value != 0xFFFF_FFFF_1234_5678 {
		t.Fatalf("64-bit move = %#x", u.Value)
	}
}

func TestCallReturnPairing(t *testing.T) {
	b := NewBuilder("call", 0x1000)
	b.EmitBranchTo(SInst{Op: isa.Branch, Kind: isa.BrCall, Cond: CondAlways, Width: 64}, "fn")
	b.Label("after")
	b.EmitBranchTo(SInst{Op: isa.Branch, Kind: isa.BrUncond, Cond: CondAlways, Width: 64}, "after")
	b.Label("fn")
	b.Emit(SInst{Op: isa.ALU, Sem: SemAddImm, Src: [2]isa.Reg{isa.IntR(0)}, Dest: isa.IntR(0), Imm: 1, Width: 64})
	b.Emit(SInst{Op: isa.Branch, Kind: isa.BrRet, Cond: CondAlways, Width: 64})
	p := b.MustBuild()
	e := NewExecutor(p)
	var u isa.Uop
	e.Next(&u) // call
	if !u.Taken || u.Target != p.Entry()+8 {
		t.Fatalf("call target %#x", u.Target)
	}
	e.Next(&u) // fn body
	e.Next(&u) // ret
	if u.Kind != isa.BrRet || u.Target != p.Entry()+4 {
		t.Fatalf("ret to %#x, want %#x", u.Target, p.Entry()+4)
	}
}

func TestWrongPathUopSynthesis(t *testing.T) {
	p := buildCounterLoop(5)
	// The loop-body add is at entry+4.
	var u isa.Uop
	if !WrongPathUop(p, p.Entry()+4, 1<<63, 0, &u) {
		t.Fatal("wrong-path fetch failed on valid PC")
	}
	if !u.WrongPath || u.Op != isa.ALU || u.Dest != isa.IntR(0) {
		t.Fatalf("synthesized µop wrong: %+v", u)
	}
	if WrongPathUop(p, 0xDEAD000, 0, 0, &u) {
		t.Fatal("wrong-path fetch succeeded off the program")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad", 0x1000)
	b.EmitBranchTo(SInst{Op: isa.Branch, Kind: isa.BrUncond, Cond: CondAlways, Width: 64}, "nowhere")
	if _, err := b.Build(); err == nil {
		t.Fatal("undefined label not reported")
	}
	b2 := NewBuilder("dup", 0x1000)
	b2.Label("x")
	b2.Emit(SInst{Op: isa.Nop})
	b2.Label("x")
	b2.Emit(SInst{Op: isa.Nop})
	if _, err := b2.Build(); err == nil {
		t.Fatal("duplicate label not reported")
	}
	if _, err := NewBuilder("empty", 0).Build(); err == nil {
		t.Fatal("empty program not reported")
	}
}

func TestTraceWindowRandomAccess(t *testing.T) {
	p := buildCounterLoop(1000)
	w := NewTraceWindow(NewExecutor(p), 2048)
	u100 := *w.At(100)
	u50 := *w.At(50) // rewind within the window
	u100b := *w.At(100)
	if u100 != u100b {
		t.Fatal("re-reading the same index changed the µop")
	}
	if u50.Seq != 50 || u100.Seq != 100 {
		t.Fatal("sequence numbering wrong")
	}
}

func TestTraceWindowDeepRewindPanics(t *testing.T) {
	p := buildCounterLoop(100000)
	w := NewTraceWindow(NewExecutor(p), 1024)
	w.At(5000)
	defer func() {
		if recover() == nil {
			t.Fatal("deep rewind did not panic")
		}
	}()
	w.At(10)
}
