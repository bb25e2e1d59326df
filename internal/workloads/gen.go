// Package workloads provides the 36 synthetic benchmarks (18 integer, 18
// floating-point analogues of the paper's SPEC CPU2000/2006 subset) used by
// every experiment. Each benchmark is a deterministic register-machine
// program built from a Spec: a parameter vector controlling move density,
// spill/reload (store→load) pairs, redundant load pairs, pointer aliasing,
// branch predictability, memory footprint, and functional-unit mix — the
// workload features that drive the paper's per-benchmark results.
package workloads

import (
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/rng"
)

// Memory map used by all generated programs.
const (
	stackBase = 0x0010_0000 // spill slots
	arrayBase = 0x0020_0000 // strided/hashed array accesses
	aliasBase = 0x0040_0000 // second pointer into the array region
	chaseBase = 0x0080_0000 // pointer-chase ring
	codeBase  = 0x0000_1000
)

// Register conventions (integer class).
var (
	rOuter = isa.IntR(0)  // outer loop counter
	rStack = isa.IntR(1)  // stack base
	rArr   = isa.IntR(2)  // array base
	rAlias = isa.IntR(3)  // alias base (same region as rArr)
	rChase = isa.IntR(4)  // pointer-chase cursor
	rIdx   = isa.IntR(5)  // array index
	rInner = isa.IntR(15) // inner loop counter
)

func chainReg(i int) isa.Reg   { return isa.IntR(6 + i%6) }  // r6..r11
func scratchReg(i int) isa.Reg { return isa.IntR(12 + i%3) } // r12..r14
func fpReg(i int) isa.Reg      { return isa.FPR(i % 8) }

// Spec parameterizes one synthetic benchmark. All probabilities are in
// [0,1] and are sampled per emitted instruction group.
type Spec struct {
	Name string
	// FP marks the benchmark as part of the FP suite (affects default
	// mixes and how results are grouped, as in the paper's figures).
	FP   bool
	Seed uint64

	// Program shape.
	Blocks   int // body blocks per outer iteration
	BlockLen int // approximate µops per block
	ILP      int // independent accumulator chains (1..6)

	// Move Elimination drivers (§2, Fig. 5).
	MovePct        float64 // probability of a move group
	MoveOnChainPct float64 // fraction of moves on the critical dependency chain

	// SMB drivers (§3, Fig. 6).
	SpillPct       float64 // probability of a spill/reload group
	SpillDist      int     // filler µops between store and reload
	FarSpillPct    float64 // far spans per block: beyond-window store→load pairs (lazy-reclaim and load-load fodder, §3.3)
	ReloadTwicePct float64 // emit a second, redundant load (load-load pair)
	InvariantPct   float64 // loop-invariant reloads: only load-load bypassing collapses them (§3)
	LoadOnChainPct float64 // fraction of load consumers on a serial chain (default 0.35): scales how latency-critical loads are
	PathDepPct     float64 // make reload distance depend on a prior branch
	AliasPct       float64 // aliased double-store before the load (Fig. 1)
	PartialPct     float64 // partial-overlap store-load (STLF-blocked)
	TrapPct        float64 // late-store-address pattern (memory traps)
	FalseDepPct    float64 // once-colliding pattern (Store Sets false deps)

	// Control flow.
	BranchPct     float64 // probability a block contains a data-dep branch
	HardBranchPct float64 // fraction of those that are ~50/50 unpredictable
	InnerTripA    int     // inner loop trip count (block-alternating)
	InnerTripB    int
	CallPct       float64 // probability a block calls a leaf function

	// Memory behaviour.
	FootprintKB int     // array footprint (rounded to a power of two)
	StridePct   float64 // strided (prefetchable) vs hashed array walks
	ArrayPct    float64 // probability of an array-access group
	ChasePct    float64 // probability of a pointer-chase load
	ChaseNodes  int     // ring size (drives chase miss latency)

	// Functional unit mix.
	FPPct     float64
	MulDivPct float64
	DivPct    float64 // fraction of mul/div that are heavy divides
}

func (s Spec) withDefaults() Spec {
	if s.Blocks == 0 {
		s.Blocks = 8
	}
	if s.BlockLen == 0 {
		s.BlockLen = 24
	}
	if s.ILP == 0 {
		s.ILP = 3
	}
	if s.SpillDist == 0 {
		s.SpillDist = 4
	}
	if s.InnerTripA == 0 {
		s.InnerTripA = 8
	}
	if s.InnerTripB == 0 {
		s.InnerTripB = s.InnerTripA
	}
	if s.FootprintKB == 0 {
		s.FootprintKB = 16
	}
	if s.ChaseNodes == 0 {
		s.ChaseNodes = 256
	}
	if s.LoadOnChainPct == 0 {
		s.LoadOnChainPct = 0.35
	}
	if s.Seed == 0 {
		s.Seed = hashName(s.Name)
	}
	return s
}

func hashName(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h | 1
}

// gen carries generation state.
type gen struct {
	spec        Spec
	r           *rng.RNG
	b           *program.Builder
	mask        uint64 // array index mask (bytes, 8-aligned)
	slot        int    // next spill slot
	trapSite    int
	fdSite      int
	partialSite int
	hops        int
	hardHops    int

	// Quota state for rare-pattern emission.
	groups     int
	instrs     int
	cntTrap    int
	cntFD      int
	cntAlias   int
	cntPartial int

	chain int // round-robin chain selector
	label int // unique label counter
}

// buildMemoSize bounds how many programs Build keeps. The memo pays off
// where a grid runs one program under many configurations back to back,
// as a spec with workload axes does: the perfbench grid builds 7
// programs for its 154 requests. A spec with a benchmark list runs the
// whole list under each configuration, so a list longer than the ring
// misses nearly every time (trackers, over all 36 catalog benchmarks,
// hits 0 of 216). That costs little: a catalog program's dense image
// builds in 0.1–16 ms, 1–2% of such a sweep's CPU, while a ring
// holding all 36 programs keeps about 100 MB more alive.
const buildMemoSize = 4

// buildMemo is Build's memo: a ring of the most recently built
// programs, keyed by their defaulted Spec (every field is a comparable
// scalar).
type buildMemo struct {
	mu   sync.Mutex
	next int
	ring [buildMemoSize]struct {
		spec Spec
		prog *program.Program
	}
}

var builds buildMemo

// lookup returns the kept program for a defaulted spec, or nil. The
// caller holds m.mu.
func (m *buildMemo) lookup(spec Spec) *program.Program {
	for _, e := range m.ring {
		if e.prog != nil && e.spec == spec {
			return e.prog
		}
	}
	return nil
}

// Build returns the program for spec. Construction is deterministic in
// spec (including its seed), so Build memoizes: the returned Program is
// shared and read-only.
//
// The program is built outside the lock and published only once built,
// so a build that panics leaves nothing behind. Two callers may both
// build a spec the first time; their programs are identical.
func Build(spec Spec) *program.Program {
	spec = spec.withDefaults()
	builds.mu.Lock()
	p := builds.lookup(spec)
	builds.mu.Unlock()
	if p != nil {
		return p
	}
	p = build(spec)
	builds.mu.Lock()
	defer builds.mu.Unlock()
	if kept := builds.lookup(spec); kept != nil {
		return kept
	}
	builds.ring[builds.next].spec, builds.ring[builds.next].prog = spec, p
	builds.next = (builds.next + 1) % buildMemoSize
	return p
}

// build constructs the program for a defaulted spec.
func build(spec Spec) *program.Program {
	g := &gen{
		spec: spec,
		r:    rng.New(spec.Seed),
		b:    program.NewBuilder(spec.Name, codeBase),
	}

	words := nextPow2(spec.FootprintKB * 1024 / 8)
	g.mask = uint64(words-1) * 8

	g.initMemory(words)
	g.prologue()

	g.b.Label("outer")
	for blk := 0; blk < spec.Blocks; blk++ {
		g.block(blk)
	}
	// Far spans: straight-line regions with beyond-window store→load
	// distances (§3.3 and the load-load ablation).
	nSpans := int(spec.FarSpillPct*float64(spec.Blocks) + 0.5)
	for s := 0; s < nSpans; s++ {
		g.farSpan(s)
	}
	// Outer loop back-edge: increment the counter and jump back.
	g.emitALU(program.SInst{
		Op: isa.ALU, Sem: program.SemAddImm,
		Src: [2]isa.Reg{rOuter, isa.NoReg}, Dest: rOuter, Imm: 1, Width: 64,
	})
	g.b.EmitBranchTo(program.SInst{
		Op: isa.Branch, Kind: isa.BrUncond, Cond: program.CondAlways,
		Src: [2]isa.Reg{rOuter, isa.NoReg}, Width: 64,
	}, "outer")

	g.leafFunctions()
	return g.b.MustBuild()
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func (g *gen) uniqueLabel(prefix string) string {
	g.label++
	return fmt.Sprintf("%s%d", prefix, g.label)
}

// initMemory seeds the array, alias window and chase ring.
func (g *gen) initMemory(words int) {
	r := rng.New(g.spec.Seed ^ 0xA5A5)
	for i := 0; i < words; i++ {
		g.b.InitMem(arrayBase+uint64(i)*8, r.Uint64())
	}
	// Loop-invariant slots (read-only after init).
	for i := 0; i < 8; i++ {
		g.b.InitMem(stackBase+invRegion+uint64(i)*8, r.Uint64()|1)
	}
	// Chase ring: a random cyclic permutation over ChaseNodes nodes.
	n := g.spec.ChaseNodes
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := 0; i < n; i++ {
		from := perm[i]
		to := perm[(i+1)%n]
		g.b.InitMem(chaseBase+uint64(from)*8, chaseBase+uint64(to)*8)
	}
}

// prologue materializes the base registers.
func (g *gen) prologue() {
	mov := func(dst isa.Reg, v uint64) {
		g.b.Emit(program.SInst{
			Op: isa.ALU, Sem: program.SemMovImm, Dest: dst, Imm: v, Width: 64,
		})
	}
	mov(rOuter, 0)
	mov(rStack, stackBase)
	mov(rArr, arrayBase)
	mov(rAlias, arrayBase) // alias: a second name for the same region
	mov(rChase, chaseBase)
	mov(rIdx, 0)
	for i := 0; i < 6; i++ {
		mov(chainReg(i), uint64(i)*0x1234567+1)
	}
	for i := 0; i < 3; i++ {
		mov(scratchReg(i), uint64(i)+0x42)
	}
	for i := 0; i < 8; i++ {
		g.b.Emit(program.SInst{
			Op: isa.FP, Sem: program.SemMovImm, Dest: fpReg(i),
			Imm: uint64(i) * 0x3ff0000000000321, Width: 64,
		})
	}
}

func (g *gen) emitALU(in program.SInst) { g.b.Emit(in) }

// nextChain rotates through the spec's independent chains.
func (g *gen) nextChain() isa.Reg {
	g.chain++
	return chainReg(g.chain % g.spec.ILP)
}
