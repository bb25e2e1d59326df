// Package regfile implements the renamer state of §4.1: the Physical
// Register File (with values, so speculation can be validated), the
// circular Free List whose head pointer is checkpointed, the speculative
// Rename Map and the Commit Rename Map.
//
// The paper's core has 256 INT and 256 FP physical registers (Table 1).
// Physical register identifiers are flat uint16 values with the class in
// bit 15 so that the reference-counting structures can CAM on a single tag.
package regfile

import (
	"fmt"

	"repro/internal/isa"
)

// PhysReg identifies a physical register: bit 15 is the class (0 INT,
// 1 FP), low bits the index within the class.
type PhysReg uint16

// NoPhysReg is the invalid physical register sentinel.
const NoPhysReg PhysReg = 0xFFFF

// MakePhys builds a PhysReg from class and index.
func MakePhys(class isa.RegClass, idx int) PhysReg {
	p := PhysReg(idx)
	if class == isa.FPReg {
		p |= 1 << 15
	}
	return p
}

// Class returns the register class of p.
func (p PhysReg) Class() isa.RegClass {
	if p&(1<<15) != 0 {
		return isa.FPReg
	}
	return isa.IntReg
}

// Index returns the within-class index of p.
func (p PhysReg) Index() int { return int(p &^ (1 << 15)) }

// Valid reports whether p is a real register.
func (p PhysReg) Valid() bool { return p != NoPhysReg }

func (p PhysReg) String() string {
	if !p.Valid() {
		return "p-"
	}
	if p.Class() == isa.FPReg {
		return fmt.Sprintf("fp%d", p.Index())
	}
	return fmt.Sprintf("p%d", p.Index())
}

// RenameMap maps architectural registers of both classes to physical
// registers. It is a small value type: checkpointing it is a struct copy,
// matching the paper's "copy the checkpointed RM" recovery (§4.1: saving
// the x86_64 map costs (16+16)×8 bits).
type RenameMap struct {
	Int [isa.NumArchRegs]PhysReg
	FP  [isa.NumArchRegs]PhysReg
}

// Get returns the mapping for architectural register r.
func (m *RenameMap) Get(r isa.Reg) PhysReg {
	if r.Class == isa.FPReg {
		return m.FP[r.Index]
	}
	return m.Int[r.Index]
}

// Set updates the mapping for architectural register r.
func (m *RenameMap) Set(r isa.Reg, p PhysReg) {
	if r.Class == isa.FPReg {
		m.FP[r.Index] = p
	} else {
		m.Int[r.Index] = p
	}
}

// FreeList is the circular buffer of free physical registers for one
// class. Allocation pops at the head; reclaiming pushes at the tail. The
// head is an absolute (monotone) counter so a checkpoint is just its value:
// restoring the head "un-pops" every register allocated on the wrong path
// (§4.1). The backing ring is 2× oversized so commit-side pushes can never
// overwrite entries that an outstanding checkpoint might still un-pop.
type FreeList struct {
	buf  []PhysReg
	head uint64 // total pops
	tail uint64 // total pushes
}

// NewFreeList builds a free list containing regs.
func NewFreeList(regs []PhysReg) *FreeList {
	f := &FreeList{buf: make([]PhysReg, 2*max(len(regs), 1))}
	for _, r := range regs {
		f.Push(r)
	}
	return f
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Len returns the number of free registers currently available.
func (f *FreeList) Len() int { return int(f.tail - f.head) }

// Pop allocates a register; ok is false when the list is empty.
func (f *FreeList) Pop() (PhysReg, bool) {
	if f.head == f.tail {
		return NoPhysReg, false
	}
	p := f.buf[f.head%uint64(len(f.buf))]
	f.head++
	return p, true
}

// Peek returns the register the next Pop returns; ok is false when the
// list is empty.
func (f *FreeList) Peek() (PhysReg, bool) {
	if f.head == f.tail {
		return NoPhysReg, false
	}
	return f.buf[f.head%uint64(len(f.buf))], true
}

// Push returns a register to the list.
func (f *FreeList) Push(p PhysReg) {
	f.buf[f.tail%uint64(len(f.buf))] = p
	f.tail++
}

// Head returns the absolute head counter for checkpointing.
func (f *FreeList) Head() uint64 { return f.head }

// RestoreHead rewinds the head counter to a checkpointed value; h must not
// exceed the current head.
func (f *FreeList) RestoreHead(h uint64) {
	if h > f.head {
		panic("regfile: RestoreHead beyond current head")
	}
	f.head = h
}

// File is the complete renamer state for both register classes.
type File struct {
	numPerClass int

	values [2][]uint64
	ready  [2][]bool
	inFL   [2][]bool // double-free/leak guard

	free [2]*FreeList

	// RM is the speculative rename map, CRM the committed one.
	RM  RenameMap
	CRM RenameMap
}

// NewFile builds a register file with n physical registers per class and
// maps the architectural registers of each class to physical registers
// 0..NumArchRegs-1, which start ready with value 0.
func NewFile(n int) *File {
	if n <= isa.NumArchRegs {
		panic("regfile: need more physical than architectural registers")
	}
	f := &File{numPerClass: n}
	for c := 0; c < 2; c++ {
		f.values[c] = make([]uint64, n)
		f.ready[c] = make([]bool, n)
		f.inFL[c] = make([]bool, n)
		var freeRegs []PhysReg
		class := isa.RegClass(c)
		for i := 0; i < n; i++ {
			if i < isa.NumArchRegs {
				f.ready[c][i] = true
				continue
			}
			freeRegs = append(freeRegs, MakePhys(class, i))
			f.inFL[c][i] = true
		}
		f.free[c] = NewFreeList(freeRegs)
	}
	for i := 0; i < isa.NumArchRegs; i++ {
		f.RM.Int[i] = MakePhys(isa.IntReg, i)
		f.RM.FP[i] = MakePhys(isa.FPReg, i)
	}
	f.CRM = f.RM
	return f
}

// NumPerClass returns the physical register count per class.
func (f *File) NumPerClass() int { return f.numPerClass }

// FreeList returns the free list of the given class.
func (f *File) FreeList(c isa.RegClass) *FreeList { return f.free[c] }

// Alloc pops a free register of class c, marking it not-ready.
func (f *File) Alloc(c isa.RegClass) (PhysReg, bool) {
	p, ok := f.free[c].Pop()
	if !ok {
		return NoPhysReg, false
	}
	f.ready[c][p.Index()] = false
	f.inFL[c][p.Index()] = false
	return p, true
}

// NoteHeadRestored must be called after rewinding a free list's head: the
// un-popped registers are free again. The caller passes the class and the
// number of un-popped registers; the guard state is resynchronized by
// marking the re-freed slots.
func (f *File) NoteHeadRestored(c isa.RegClass) {
	fl := f.free[c]
	for i := fl.head; i < fl.tail; i++ {
		p := fl.buf[i%uint64(len(fl.buf))]
		f.inFL[c][p.Index()] = true
	}
}

// Release pushes p back on its class's free list. Releasing a register
// that is already free indicates a reference counting bug and panics.
func (f *File) Release(p PhysReg) {
	c := p.Class()
	if f.inFL[c][p.Index()] {
		panic(fmt.Sprintf("regfile: double free of %v", p))
	}
	f.inFL[c][p.Index()] = true
	f.free[c].Push(p)
}

// SetReady marks p ready and records its value.
func (f *File) SetReady(p PhysReg, value uint64) {
	c := int(p.Class())
	f.ready[c][p.Index()] = true
	f.values[c][p.Index()] = value
}

// MarkNotReady clears p's ready bit (used when a register is re-popped
// after a head restore).
func (f *File) MarkNotReady(p PhysReg) {
	f.ready[p.Class()][p.Index()] = false
}

// InFreeList reports whether p is currently free (used by the core's
// register-conservation audit).
func (f *File) InFreeList(p PhysReg) bool {
	return f.inFL[p.Class()][p.Index()]
}

// Ready reports whether p holds its final value.
func (f *File) Ready(p PhysReg) bool {
	return f.ready[p.Class()][p.Index()]
}

// Value returns the current value of p.
func (f *File) Value(p PhysReg) uint64 {
	return f.values[p.Class()][p.Index()]
}
