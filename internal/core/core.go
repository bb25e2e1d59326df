// Package core implements the cycle-level out-of-order superscalar
// processor of Table 1 — the substrate the paper's mechanisms (ISRB, Move
// Elimination, Speculative Memory Bypassing) are evaluated on.
//
// The pipeline models an aggressive 4GHz, 8-wide-front-end, 6-issue core:
// a 19-cycle fetch-to-commit depth, checkpoint-based branch recovery (20
// cycles minimum misprediction penalty), a 192-entry ROB, a 60-entry
// unified scheduler with the paper's functional-unit pool, 72/48-entry
// load/store queues with 4-cycle store-to-load forwarding, 256+256
// physical registers, Store Sets memory dependence prediction, TAGE branch
// prediction and a three-level memory hierarchy.
//
// One simulated cycle runs the stages back to front (commit, writeback,
// issue, rename, fetch), so each µop advances at most one stage per
// cycle; see docs/ARCHITECTURE.md for the full data flow and the mapping
// of every sibling package onto the paper's sections.
package core

import (
	"context"
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/moveelim"
	"repro/internal/program"
	"repro/internal/refcount"
	"repro/internal/regfile"
	"repro/internal/smb"
	"repro/internal/storesets"
	"repro/internal/tage"
)

// pendingCompletion marks an issued µop whose completion time is not yet
// known (a load blocked on a store writeback).
const pendingCompletion = ^uint64(0)

// Flush causes recorded in a ROB entry and resolved when it reaches the
// commit head.
const (
	flushNone uint8 = iota
	flushMemOrder
	flushBypass
)

type robEntry struct {
	valid     bool
	u         isa.Uop
	csn       uint64
	streamIdx uint64 // correct-path trace index (wrong path: ^0)

	srcPhys     [isa.MaxSrcRegs]regfile.PhysReg
	destPhys    regfile.PhysReg
	oldDestPhys regfile.PhysReg
	oldDestFlag bool
	allocatedFL bool

	eliminated          bool
	bypassed            bool
	bypassPhys          regfile.PhysReg
	bypassFromCommitted bool

	hasMemDep  bool
	memDepCSN  uint64
	depDelayed bool

	lqIdx, sqIdx int64 // absolute LSQ slot ids (-1 = none)
	ckptIdx      int

	inIQ       bool
	issued     bool
	completed  bool
	readyAt    uint64
	dispatchAt uint64
	needsFlush uint8

	pred         branch.Prediction
	bpSnap       branch.Snapshot
	fetchMispred bool
	resumePos    uint64
	histSnap     tage.History
	smbDist      uint16
	smbConf      bool
}

type winEntry struct {
	valid     bool
	csn       uint64
	destPhys  regfile.PhysReg
	hasDest   bool
	committed bool
	epoch     uint32
}

type lqEntry struct {
	valid        bool
	robIdx       int
	csn          uint64
	addr         uint64
	width        uint8
	issued       bool
	doneAt       uint64
	forwardedCSN uint64 // 0 = from memory
	waitWBStore  uint64 // csn of store whose writeback unblocks us (0 = none)
	violated     bool
}

type sqEntry struct {
	valid    bool
	robIdx   int
	csn      uint64
	pc       uint64
	addr     uint64
	width    uint8
	executed bool
	dataAt   uint64
	wrong    bool // wrong-path store
}

type checkpoint struct {
	inUse     bool
	csn       uint64
	rm        regfile.RenameMap
	flags     [2][isa.NumArchRegs]bool
	flHead    [2]uint64
	tracker   refcount.Snapshot
	bp        branch.Snapshot
	resumePos uint64
	renameCSN uint64
}

type fqEntry struct {
	u            isa.Uop
	streamIdx    uint64
	readyAt      uint64
	pred         branch.Prediction
	bpSnap       branch.Snapshot
	fetchMispred bool
	resumePos    uint64
	histSnap     tage.History
	smbDist      uint16
	smbConf      bool
}

type inflightRef struct {
	robIdx int
	csn    uint64
}

type reclaimItem struct {
	phys regfile.PhysReg
	arch isa.Reg
	flag bool
	prod uint64 // csn of the overwriting (committing) instruction
}

// Core is one simulated processor running one program.
type Core struct {
	cfg     Config
	prog    *program.Program
	trace   *program.TraceWindow
	bp      *branch.Predictor
	mem     *cache.Hierarchy
	ss      *storesets.StoreSets
	rf      *regfile.File
	tracker refcount.Tracker
	me      *moveelim.Eliminator
	dist    smb.DistancePredictor
	trainer *smb.Trainer

	cycle uint64

	// Fetch.
	fetchPos        uint64
	diverged        bool
	wrongPC         uint64
	wrongSeq        uint64
	fetchStallUntil uint64
	// lastAddr records each memory instruction's most recent correct-path
	// effective address, indexed by static instruction (wrong-path fetch
	// replays it for plausible cache behaviour).
	lastAddr       []uint64
	lastICachePC   uint64
	fq             []fqEntry
	fqHead, fqTail uint64

	// Rename.
	renameCSN uint64
	flags     [2][isa.NumArchRegs]bool

	// ROB (ring).
	rob                        []robEntry
	robHead, robTail, robCount int

	// Producer window (CSN ring, covers in-flight + retained committed).
	window       []winEntry
	releaseEpoch [2][]uint32

	// Scheduler, wakeup-driven (see issue.go). Its sets are bitmasks
	// over ROB slots, slotWords words each.
	iqCount      int      // µops renamed into the scheduler, not yet issued or squashed
	readySet     []uint64 // entries whose register sources are all ready
	unready      []uint8  // per slot: distinct register sources not yet ready
	consumerSets []uint64 // per physical register, the entries that read it
	slotWords    int

	// Writeback scan state: issued-but-incomplete µops, so writeback does
	// not walk the full ROB every cycle. Entries are (robIdx, csn) pairs;
	// the csn disambiguates slots recycled by a squash.
	inflight   []inflightRef
	completing []int // robIdx scratch, csn-sorted per cycle

	// LSQ (rings with absolute ids).
	lq             []lqEntry
	lqHead, lqTail uint64
	sq             []sqEntry
	sqHead, sqTail uint64

	// Checkpoints.
	ckpts     []checkpoint
	liveCkpts int

	// Unpipelined units.
	mulDivBusyUntil uint64
	fpDivBusyUntil  []uint64

	tracer Tracer

	// auditMapped is DrainAndAudit's reachability scratch (one flag per
	// physical register, reused across invocations).
	auditMapped []bool

	// Commit side.
	commitCSN       uint64
	crmFlags        [2][isa.NumArchRegs]bool
	committedFLHead [2]uint64
	commitHist      tage.History
	commitRAS       []uint64
	commitRASTop    int
	pendingReclaim  []reclaimItem

	stats Stats
}

// New builds a core for the given program.
func New(cfg Config, prog *program.Program) *Core {
	cfg.validate()
	slotWords := (cfg.ROBSize + 63) / 64
	c := &Core{
		cfg:            cfg,
		prog:           prog,
		trace:          program.NewTraceWindow(program.NewExecutor(prog), 4096),
		bp:             branch.New(cfg.Branch),
		mem:            cache.NewHierarchy(cfg.Mem),
		ss:             storesets.New(cfg.StoreSets),
		rf:             regfile.NewFile(cfg.PhysRegsPerClass),
		tracker:        cfg.NewTracker(),
		me:             moveelim.New(cfg.ME),
		lastAddr:       make([]uint64, prog.NumInsts()),
		rob:            make([]robEntry, cfg.ROBSize),
		window:         make([]winEntry, 1024),
		readySet:       make([]uint64, slotWords),
		unready:        make([]uint8, cfg.ROBSize),
		consumerSets:   make([]uint64, 2*cfg.PhysRegsPerClass*slotWords),
		slotWords:      slotWords,
		inflight:       make([]inflightRef, 0, cfg.ROBSize),
		completing:     make([]int, 0, cfg.ROBSize),
		lq:             make([]lqEntry, cfg.LQSize),
		sq:             make([]sqEntry, cfg.SQSize),
		ckpts:          make([]checkpoint, cfg.MaxCheckpoints),
		fq:             make([]fqEntry, 512),
		fpDivBusyUntil: make([]uint64, cfg.NumFPMulDiv),
		commitRAS:      make([]uint64, cfg.Branch.RASEntries),
		pendingReclaim: make([]reclaimItem, 0, 2*cfg.ROBSize),
	}
	c.releaseEpoch[0] = make([]uint32, cfg.PhysRegsPerClass)
	c.releaseEpoch[1] = make([]uint32, cfg.PhysRegsPerClass)
	if cfg.SMB.Enabled {
		switch cfg.SMB.Predictor {
		case DistanceNoSQ:
			c.dist = smb.NewNoSQDistance()
		default:
			c.dist = smb.NewTAGEDistanceWithConfig(smb.TAGEConfigWithHistories(cfg.SMB.TAGEGeometry))
		}
		c.trainer = smb.NewTrainer(smb.NewDDT(cfg.SMB.DDT), c.dist, cfg.SMB.LoadLoad)
	} else {
		// The trainer still maintains CSN bookkeeping cheaply when SMB is
		// off; skip it entirely for speed.
		c.trainer = nil
	}
	return c
}

// Tracker exposes the reference counting scheme (for stats and tests).
func (c *Core) Tracker() refcount.Tracker { return c.tracker }

// Mem exposes the memory hierarchy (for stats).
func (c *Core) Mem() *cache.Hierarchy { return c.mem }

// BranchUnit exposes the branch predictor (for stats).
func (c *Core) BranchUnit() *branch.Predictor { return c.bp }

// MoveElim exposes the eliminator (for stats).
func (c *Core) MoveElim() *moveelim.Eliminator { return c.me }

// Distance exposes the SMB distance predictor (nil when SMB is off).
func (c *Core) Distance() smb.DistancePredictor { return c.dist }

// Trainer exposes the SMB commit-side trainer (nil when SMB is off).
func (c *Core) Trainer() *smb.Trainer { return c.trainer }

// Cycle advances the machine by one clock.
func (c *Core) Cycle() {
	c.commit()
	c.writeback()
	c.issue()
	c.rename()
	c.fetch()
	c.cycle++
	c.stats.Cycles++
}

// Run executes until `measure` µops have committed after a warmup of
// `warmup` committed µops; statistics cover only the measured region.
// It cannot be interrupted; long or batched runs should use RunContext.
func (c *Core) Run(warmup, measure uint64) *Stats {
	st, err := c.RunContext(context.Background(), warmup, measure)
	if err != nil {
		// Unreachable: the background context is never canceled.
		panic(fmt.Sprintf("core: %v", err))
	}
	return st
}

// cancelCheckInterval is how many cycles the run loop executes between
// context checks. At simulator speeds (hundreds of thousands of cycles
// per second) 4096 cycles is a few milliseconds of wall clock — far
// below any human-visible progress interval — while keeping the check
// itself (one predictable branch per cycle, one ctx.Err call per
// interval) invisible in the hot-loop profile.
const cancelCheckInterval = 4096

// RunContext is Run with cancellation: the cycle loop checks ctx every
// cancelCheckInterval cycles and returns ctx.Err() — the machine state
// is left mid-flight and must not be reused for measurement — when the
// context is canceled or its deadline passes. Statistics cover only the
// measured region.
func (c *Core) RunContext(ctx context.Context, warmup, measure uint64) (*Stats, error) {
	if err := c.runUntil(ctx, c.stats.Committed+warmup); err != nil {
		return nil, err
	}
	c.stats.reset()
	start := c.cycle
	err := c.runUntil(ctx, c.stats.Committed+measure)
	c.stats.Cycles = c.cycle - start
	if err != nil {
		return nil, err
	}
	return &c.stats, nil
}

func (c *Core) runUntil(ctx context.Context, committedTarget uint64) error {
	lastCommitted := c.stats.Committed
	stuck := uint64(0)
	check := uint64(cancelCheckInterval)
	for c.stats.Committed < committedTarget {
		c.Cycle()
		if c.stats.Committed == lastCommitted {
			stuck++
			if stuck > 200000 {
				panic(fmt.Sprintf("core: no commit for %d cycles at cycle %d (%s)", stuck, c.cycle, c.debugState()))
			}
		} else {
			stuck = 0
			lastCommitted = c.stats.Committed
		}
		check--
		if check == 0 {
			check = cancelCheckInterval
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *Core) debugState() string {
	head := "empty"
	if c.robCount > 0 {
		e := &c.rob[c.robHead]
		head = fmt.Sprintf("head %v csn=%d issued=%v completed=%v readyAt=%d inIQ=%v wrong=%v",
			e.u.String(), e.csn, e.issued, e.completed, e.readyAt, e.inIQ, e.u.WrongPath)
	}
	return fmt.Sprintf("rob=%d iq=%d lq=%d sq=%d freeInt=%d ckpts=%d diverged=%v fstall=%d; %s",
		c.robCount, c.iqCount, c.lqTail-c.lqHead, c.sqTail-c.sqHead,
		c.rf.FreeList(isa.IntReg).Len(), c.liveCkpts, c.diverged, c.fetchStallUntil, head)
}

// robIndexAfter returns the ring index i+1.
func (c *Core) robNext(i int) int {
	i++
	if i == len(c.rob) {
		return 0
	}
	return i
}

// forEachROB visits valid entries oldest-first.
func (c *Core) forEachROB(f func(idx int, e *robEntry) bool) {
	i := c.robHead
	for n := 0; n < c.robCount; n++ {
		if !f(i, &c.rob[i]) {
			return
		}
		i = c.robNext(i)
	}
}

func (c *Core) windowAt(csn uint64) *winEntry {
	return &c.window[csn%uint64(len(c.window))]
}

func (c *Core) epochOf(p regfile.PhysReg) uint32 {
	return c.releaseEpoch[p.Class()][p.Index()]
}

// releaseReg returns p to the free list and bumps its epoch so stale
// window entries can no longer offer it for bypassing.
func (c *Core) releaseReg(p regfile.PhysReg) {
	c.releaseEpoch[p.Class()][p.Index()]++
	c.rf.Release(p)
}

func (c *Core) sqFind(csn uint64) *sqEntry {
	for i := c.sqHead; i < c.sqTail; i++ {
		e := &c.sq[i%uint64(len(c.sq))]
		if e.valid && e.csn == csn {
			return e
		}
	}
	return nil
}

// overlap reports whether two byte ranges intersect.
func overlap(addrA uint64, widthA uint8, addrB uint64, widthB uint8) bool {
	endA := addrA + uint64(widthA)/8
	endB := addrB + uint64(widthB)/8
	return addrA < endB && addrB < endA
}

// contains reports whether [addrB,widthB) fully covers [addrA,widthA).
func contains(addrOuter uint64, widthOuter uint8, addrInner uint64, widthInner uint8) bool {
	return addrOuter <= addrInner &&
		addrInner+uint64(widthInner)/8 <= addrOuter+uint64(widthOuter)/8
}
