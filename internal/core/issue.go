package core

import (
	"math/bits"

	"repro/internal/isa"
	"repro/internal/regfile"
)

// The scheduler is wakeup-driven, as hardware is. Each physical
// register has a consumer set, a bitmask over ROB slots holding every
// scheduler entry that reads the register, and each entry counts its
// distinct sources that are not ready. Writeback, on marking a register
// ready, wakes its consumers: an entry whose count reaches zero joins
// the ready set, another bitmask over ROB slots. Walking the ready set
// from robHead visits ready entries in age order, and nothing on the
// path allocates. A count of the ready entries lets issue return at
// once while nothing is ready, and tells runUntil the scheduler is idle.
//
// The ready set is exactly the set of entries whose sources are all
// ready, the entries a scan of every entry would find, because every
// change of a ready bit updates the counts of the register's consumers:
// SetReady through wake, and Alloc through allocReg. A register is
// normally free only once nothing reads it, so allocReg finds no
// consumers; it matters only when a register is reclaimed while still
// shared.

// issue is the 6-wide unified scheduler of Table 1. Entries are selected
// oldest-first once their sources are ready (full bypass network: a
// dependent of a 1-cycle op issues back-to-back) and a functional unit of
// the right class is free: 4 ALUs, 1 integer mul/div unit (divide not
// pipelined), 2 FP adders, 2 FP mul/div units (divide not pipelined), two
// load/store ports and one store-only port.
//
//repro:hotpath
func (c *Core) issue() {
	if c.readyCount == 0 {
		return
	}
	issued := 0
	alu, fp, fpDiv, ldst, st := 0, 0, 0, 0, 0
	mulDivUsed := false

	for off, idx := c.nextReady(0); off >= 0 && issued < c.cfg.IssueWidth; off, idx = c.nextReady(off + 1) {
		e := &c.rob[idx]
		if e.dispatchAt > c.cycle {
			continue
		}

		ok := false
		switch e.u.Op {
		case isa.ALU, isa.Move, isa.Nop, isa.Branch:
			if alu < c.cfg.NumALU {
				alu++
				ok = true
				c.execute(idx, e, ExecLatency(e.u))
			}
		case isa.MulDiv:
			if !mulDivUsed && c.cycle >= c.mulDivBusyUntil {
				mulDivUsed = true
				ok = true
				lat := ExecLatency(e.u)
				if e.u.Heavy {
					c.mulDivBusyUntil = c.cycle + lat // not pipelined
				}
				c.execute(idx, e, lat)
			}
		case isa.FP:
			if fp < c.cfg.NumFP {
				fp++
				ok = true
				c.execute(idx, e, ExecLatency(e.u))
			}
		case isa.FPMulDiv:
			if fpDiv < c.cfg.NumFPMulDiv {
				if unit := c.freeFPDivUnit(); unit >= 0 {
					fpDiv++
					ok = true
					lat := ExecLatency(e.u)
					if e.u.Heavy {
						c.fpDivBusyUntil[unit] = c.cycle + lat
					}
					c.execute(idx, e, lat)
				}
			}
		case isa.Load:
			if ldst < c.cfg.NumLdStr && c.loadReadyToIssue(e) {
				ldst++
				ok = true
				c.issueLoad(idx, e)
			}
		case isa.Store:
			if (ldst < c.cfg.NumLdStr || st < c.cfg.NumStr) && c.storeReadyToIssue(e) {
				if ldst < c.cfg.NumLdStr {
					ldst++
				} else {
					st++
				}
				ok = true
				c.execute(idx, e, 1)
			}
		}

		if ok {
			c.leaveIQ(idx, e)
			issued++
			if c.tracer != nil {
				c.tracer.Issued(c.cycle, e.csn)
			}
		}
	}
}

// nextReady returns the oldest ready entry whose age (its offset from
// the ROB head) is at least from: its age and its ROB slot, or off = -1
// when there is none. Only live scheduler entries have ready bits, but
// the live range can wrap around into the word holding robHead, whose
// higher bits then belong to older entries; a bit at or past the ROB's
// occupancy is one of those, so the walk ends there.
func (c *Core) nextReady(from int) (off, idx int) {
	for from < c.robCount {
		idx = c.robHead + from
		if idx >= len(c.rob) {
			idx -= len(c.rob)
		}
		if m := c.readySet[idx>>6] >> (idx & 63); m != 0 {
			tz := bits.TrailingZeros64(m)
			if from+tz >= c.robCount {
				break
			}
			return from + tz, idx + tz
		}
		from += min(64-idx&63, len(c.rob)-idx)
	}
	return -1, 0
}

// consumers returns the consumer set of p: one bit per ROB slot whose
// scheduler entry reads p.
func (c *Core) consumers(p regfile.PhysReg) []uint64 {
	i := (int(p.Class())*c.cfg.PhysRegsPerClass + p.Index()) * c.slotWords
	return c.consumerSets[i : i+c.slotWords]
}

// enterIQ puts the renamed µop in ROB slot idx into the scheduler, as a
// consumer of each register source (including the SMB validation
// source), and into the ready set when they are all ready.
func (c *Core) enterIQ(idx int, e *robEntry) {
	e.inIQ = true
	c.iqCount++
	c.unready[idx] = 0
	for _, p := range e.srcPhys {
		if p.Valid() {
			c.addConsumer(idx, p)
		}
	}
	if e.bypassed {
		c.addConsumer(idx, e.bypassPhys)
	}
	if c.unready[idx] == 0 {
		c.readySet[idx>>6] |= 1 << (idx & 63)
		c.readyCount++
	}
}

// addConsumer enters slot idx in p's consumer set and counts p when it
// is not ready. A register named twice is counted once.
func (c *Core) addConsumer(idx int, p regfile.PhysReg) {
	ws := c.consumers(p)
	bit := uint64(1) << (idx & 63)
	if ws[idx>>6]&bit != 0 {
		return
	}
	ws[idx>>6] |= bit
	if !c.rf.Ready(p) {
		c.unready[idx]++
	}
}

// leaveIQ removes the µop in ROB slot idx from the scheduler, when it
// issues or is squashed.
func (c *Core) leaveIQ(idx int, e *robEntry) {
	if !e.inIQ {
		return
	}
	e.inIQ = false
	c.iqCount--
	bit := uint64(1) << (idx & 63)
	if c.readySet[idx>>6]&bit != 0 {
		c.readySet[idx>>6] &^= bit
		c.readyCount--
	}
	for _, p := range e.srcPhys {
		if p.Valid() {
			c.consumers(p)[idx>>6] &^= bit
		}
	}
	if e.bypassed {
		c.consumers(e.bypassPhys)[idx>>6] &^= bit
	}
}

// wake runs when p turns ready: each consumer has one source fewer to
// wait for, and joins the ready set when it was the last.
func (c *Core) wake(p regfile.PhysReg) {
	for w, m := range c.consumers(p) {
		for ; m != 0; m &= m - 1 {
			idx := w<<6 + bits.TrailingZeros64(m)
			c.unready[idx]--
			if c.unready[idx] == 0 {
				c.readySet[w] |= 1 << (idx & 63)
				c.readyCount++
			}
		}
	}
}

// allocReg allocates a free register of class cl for a renamed µop's
// destination. Allocation clears the register's ready bit; when it was
// set, every consumer of the register now waits for it again.
func (c *Core) allocReg(cl isa.RegClass) regfile.PhysReg {
	next, ok := c.rf.FreeList(cl).Peek()
	if !ok {
		panic("core: free list empty after availability check")
	}
	wasReady := c.rf.Ready(next)
	p, _ := c.rf.Alloc(cl)
	if wasReady {
		for w, m := range c.consumers(p) {
			for ; m != 0; m &= m - 1 {
				idx := w<<6 + bits.TrailingZeros64(m)
				if c.unready[idx] == 0 {
					c.readySet[w] &^= 1 << (idx & 63)
					c.readyCount--
				}
				c.unready[idx]++
			}
		}
	}
	return p
}

// loadReadyToIssue enforces the Store Sets dependence. Bypassed loads
// also respect it for their VALIDATION access — the dependents read the
// shared register and never wait, which is how SMB removes the cost of
// false dependencies (§3.1) without turning store-queue forwards into
// extra cache traffic.
func (c *Core) loadReadyToIssue(e *robEntry) bool {
	if !e.hasMemDep {
		return true
	}
	s := c.sqFind(e.memDepCSN)
	if s == nil || s.executed {
		return true
	}
	e.depDelayed = true
	return false
}

// storeReadyToIssue enforces same-set store ordering.
func (c *Core) storeReadyToIssue(e *robEntry) bool {
	if !e.hasMemDep {
		return true
	}
	s := c.sqFind(e.memDepCSN)
	return s == nil || s.executed
}

func (c *Core) freeFPDivUnit() int {
	for i, busy := range c.fpDivBusyUntil {
		if c.cycle >= busy {
			return i
		}
	}
	return -1
}

// execute schedules completion of a non-load µop.
func (c *Core) execute(idx int, e *robEntry, latency uint64) {
	e.issued = true
	e.readyAt = c.cycle + latency
	c.inflight = append(c.inflight, inflightRef{robIdx: idx, csn: e.csn})
}

// issueLoad performs the load's memory access: store-queue search with
// containment-based forwarding (4-cycle STLF), partial-overlap stalls
// until the store's writeback, or a cache access.
func (c *Core) issueLoad(idx int, e *robEntry) {
	e.issued = true
	c.inflight = append(c.inflight, inflightRef{robIdx: idx, csn: e.csn})
	l := &c.lq[uint64(e.lqIdx)%uint64(len(c.lq))]
	l.issued = true

	// False-dependence accounting: the load was given a Store Sets
	// dependence on a store that does not actually overlap it — an
	// enforced-but-unnecessary serialization (Fig. 4). A bypassed load's
	// dependents read the shared register and never wait, so the event
	// is not counted for it — the reduction Figure 6b reports.
	if e.hasMemDep && !e.bypassed {
		if s := c.sqFind(e.memDepCSN); s != nil && s.executed {
			if !overlap(s.addr, s.width, l.addr, l.width) {
				c.stats.FalseDeps++
			}
		}
	}

	// Youngest older overlapping store with a known address. A store
	// whose execution completes within a cycle also counts: its address
	// CAM result is on the wire when the load's access starts, exactly
	// the same-cycle boundary real disambiguation hardware resolves in
	// the store's favour.
	var best *sqEntry
	var bestData uint64
	for i := c.sqHead; i < c.sqTail; i++ {
		s := &c.sq[i%uint64(len(c.sq))]
		if !s.valid || s.csn >= e.csn {
			continue
		}
		dataAt := s.dataAt
		if !s.executed {
			re := &c.rob[s.robIdx]
			if !(re.valid && re.csn == s.csn && re.issued && re.readyAt <= c.cycle+1) {
				continue
			}
			dataAt = re.readyAt
		}
		if overlap(s.addr, s.width, l.addr, l.width) {
			if best == nil || s.csn > best.csn {
				best = s
				bestData = dataAt
			}
		}
	}

	switch {
	case best != nil && contains(best.addr, best.width, l.addr, l.width):
		// Store-to-load forwarding.
		start := c.cycle
		if bestData > start {
			start = bestData
		}
		e.readyAt = start + c.cfg.STLFLatency
		l.forwardedCSN = best.csn + 1
		l.doneAt = e.readyAt
		c.stats.STLFForwards++
	case best != nil:
		// Partial overlap: wait for the store to write back (Table 1).
		e.readyAt = pendingCompletion
		l.waitWBStore = best.csn
		l.doneAt = pendingCompletion
		c.stats.PartialWaits++
	default:
		e.readyAt = c.mem.ReadData(e.u.PC, l.addr, c.cycle)
		l.doneAt = e.readyAt
		c.stats.LoadsToMemory++
	}
}
