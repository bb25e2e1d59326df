// Package program provides the synthetic-workload substrate that stands in
// for the paper's SPEC CPU binaries: a tiny register-machine program
// representation with a real control-flow graph, a functional executor
// that produces the architecturally-correct dynamic µop stream (with true
// register dataflow, memory values and branch outcomes), and static-code
// lookup so the timing core can fetch down mispredicted paths.
//
// Real wrong-path fetch matters here more than in most simulators: the
// ISRB's contribution is *recovery* of reference-counting state after
// squashes, so squashed instructions must really rename, really share
// registers, and really be rolled back.
package program

import (
	"fmt"
	"iter"

	"repro/internal/isa"
)

// Semantic selects the functional operation an instruction performs. The
// set is deliberately small: the timing model only needs the op class,
// while the functional model needs enough value diversity for speculation
// (SMB validation, branch conditions) to be meaningfully testable.
type Semantic uint8

const (
	// SemNop produces no value.
	SemNop Semantic = iota
	// SemAdd computes src0 + src1.
	SemAdd
	// SemSub computes src0 - src1.
	SemSub
	// SemXor computes src0 ^ src1.
	SemXor
	// SemAddImm computes src0 + imm.
	SemAddImm
	// SemMulImm computes src0*imm + 0x9e3779b97f4a7c15 (value scrambler).
	SemMulImm
	// SemMovImm produces imm.
	SemMovImm
	// SemMov copies src0 (width-masked: 32-bit moves zero-extend).
	SemMov
	// SemLoad reads memory at addrReg+imm.
	SemLoad
	// SemStore writes src0 to memory at addrReg+imm.
	SemStore
	// SemAnd computes src0 & src1.
	SemAnd
	// SemShl computes src0 << (imm & 63).
	SemShl
	// SemAndImm computes src0 & imm.
	SemAndImm
	// SemSubImm computes imm - src0 (reverse subtract, used to build
	// 0/1 selectors from flags).
	SemSubImm
	// SemShrImm computes src0 >> (imm & 63).
	SemShrImm
)

// CondKind selects a conditional branch's predicate, evaluated on the
// functional value of the first source register.
type CondKind uint8

const (
	// CondAlways is an unconditional transfer.
	CondAlways CondKind = iota
	// CondEQImm branches when src0 == imm.
	CondEQImm
	// CondNEImm branches when src0 != imm.
	CondNEImm
	// CondLTImm branches when src0 < imm (unsigned).
	CondLTImm
	// CondBitSet branches when bit (imm&63) of src0 is set: applied to
	// hashed data this yields hard-to-predict branches.
	CondBitSet
)

// SInst is one static instruction. PCs are assigned by the Builder, 4
// bytes apart, so 16-byte fetch blocks hold 4 instructions.
type SInst struct {
	PC    uint64
	Op    isa.Op
	Kind  isa.BranchKind
	Heavy bool
	Sem   Semantic
	Cond  CondKind

	Src     [2]isa.Reg
	Dest    isa.Reg
	AddrReg isa.Reg
	Width   uint8
	Imm     uint64

	// Target is the branch target PC (calls/jumps/taken conditionals).
	Target uint64
}

// Program is a fully built static program. It is immutable once Build
// returns, so one Program may back any number of executors and cores,
// concurrently.
type Program struct {
	Name  string
	insts []SInst
	entry uint64
	// mem is the initial memory image, keyed by 8-byte word index (the
	// executor's own keying), which NewExecutor clones page by page.
	mem *PagedMem
	// InitRegs seeds the architectural registers.
	InitRegs [2][isa.NumArchRegs]uint64
}

// InitMem yields the initial memory image one seeded 8-byte word at a
// time, as (byte address, value), in address order.
func (p *Program) InitMem() iter.Seq2[uint64, uint64] {
	return func(yield func(addr, value uint64) bool) {
		for w, v := range p.mem.All() {
			if !yield(w<<3, v) {
				return
			}
		}
	}
}

// Entry returns the program's entry PC.
func (p *Program) Entry() uint64 { return p.entry }

// NumInsts returns the static instruction count.
func (p *Program) NumInsts() int { return len(p.insts) }

// StaticIndex returns the dense instruction index of pc, or -1 when pc is
// outside the program. The Builder assigns PCs contiguously 4 bytes
// apart, so the lookup is pure arithmetic — StaticAt sits on the
// simulator's fetch path (including wrong-path fetch) and must not cost
// a map probe per µop.
func (p *Program) StaticIndex(pc uint64) int {
	off := pc - p.insts[0].PC
	if off%4 != 0 || off/4 >= uint64(len(p.insts)) {
		return -1
	}
	return int(off / 4)
}

// StaticAt returns the static instruction at pc.
func (p *Program) StaticAt(pc uint64) (*SInst, bool) {
	i := p.StaticIndex(pc)
	if i < 0 {
		return nil, false
	}
	return &p.insts[i], true
}

// NextPC returns the fall-through PC after pc.
func (p *Program) NextPC(pc uint64) uint64 { return pc + 4 }

// Builder assembles a Program from labelled basic blocks.
type Builder struct {
	name   string
	insts  []SInst
	labels map[string]uint64
	fixups []fixup
	mem    *PagedMem
	pc     uint64
	err    error
}

type fixup struct {
	inst  int
	label string
}

// NewBuilder starts a program named name at the given base PC.
func NewBuilder(name string, basePC uint64) *Builder {
	return &Builder{
		name:   name,
		labels: make(map[string]uint64),
		mem:    NewPagedMem(),
		pc:     basePC,
	}
}

// Label marks the current position with a (unique) label.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup && b.err == nil {
		b.err = fmt.Errorf("program: duplicate label %q", name)
	}
	b.labels[name] = b.pc
	return b
}

// PC returns the address the next emitted instruction will get.
func (b *Builder) PC() uint64 { return b.pc }

// Emit appends a static instruction, assigning its PC.
func (b *Builder) Emit(in SInst) *Builder {
	in.PC = b.pc
	b.insts = append(b.insts, in)
	b.pc += 4
	return b
}

// EmitBranchTo appends a branch whose target is resolved from a label at
// Build time.
func (b *Builder) EmitBranchTo(in SInst, label string) *Builder {
	in.PC = b.pc
	b.insts = append(b.insts, in)
	b.fixups = append(b.fixups, fixup{inst: len(b.insts) - 1, label: label})
	b.pc += 4
	return b
}

// InitMem seeds one 8-byte memory word. The address must be 8-byte
// aligned: loads and stores address whole aligned words, so an
// unaligned seed could never be read, and Build reports it.
func (b *Builder) InitMem(addr, value uint64) *Builder {
	if addr&7 != 0 {
		if b.err == nil {
			b.err = fmt.Errorf("program %q: unaligned initial memory address %#x", b.name, addr)
		}
		return b
	}
	b.mem.Store(addr>>3, value)
	return b
}

// Build resolves labels and returns the program. The entry point is the
// first instruction.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.insts) == 0 {
		return nil, fmt.Errorf("program %q: empty", b.name)
	}
	for _, f := range b.fixups {
		pc, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("program %q: undefined label %q", b.name, f.label)
		}
		b.insts[f.inst].Target = pc
	}
	p := &Program{
		Name:  b.name,
		insts: b.insts,
		entry: b.insts[0].PC,
		mem:   b.mem,
	}
	return p, nil
}

// MustBuild is Build that panics on error; workload construction errors
// are programming bugs, not runtime conditions.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
