package core

import (
	"repro/internal/isa"
	"repro/internal/refcount"
	"repro/internal/regfile"
)

// rename processes up to RenameWidth µops per cycle from the front-end
// queue: register renaming, Move Elimination (§2), SMB bypassing through
// the ROB-indexed producer window (§3.2), Store Sets lookups, and
// checkpoint allocation at branches (§4.1).
//
//repro:hotpath
func (c *Core) rename() {
	for n := 0; n < c.cfg.RenameWidth; n++ {
		if c.fqHead == c.fqTail {
			return
		}
		fe := &c.fq[c.fqHead%fetchQueueSize]
		stall := c.renameStall(fe)
		if stall == &c.stats.StallFreeList && c.cfg.SMB.BypassCommitted {
			// Conservative: even a bypassed µop stalls when no register is
			// free, matching a machine that checks availability up front;
			// lazy reclaim gets one chance to refill the list first.
			c.drainPendingReclaim(c.cfg.RenameWidth)
			stall = c.renameStall(fe)
		}
		if stall != nil {
			if n == 0 {
				*stall++
			}
			return
		}
		u := fe.u
		ckptIdx := -1
		if u.IsBranch() {
			ckptIdx = c.freeCheckpointSlot()
		}
		if c.cfg.SMB.BypassCommitted &&
			c.rf.FreeList(isa.IntReg).Len() < c.cfg.LazyReclaimLowWater {
			c.drainPendingReclaim(c.cfg.RenameWidth)
		}

		c.fqHead++
		c.stats.RenamedUops++

		// Allocate the ROB entry.
		idx := c.robTail
		c.robTail = c.robNext(c.robTail)
		c.robCount++
		// Filled in place: a composite literal stored through a
		// pointer is built in a temporary and then copied.
		e := &c.rob[idx]
		*e = robEntry{}
		e.valid = true
		e.u = u
		e.csn = c.renameCSN
		e.streamIdx = fe.streamIdx
		e.destPhys, e.oldDestPhys, e.bypassPhys = regfile.NoPhysReg, regfile.NoPhysReg, regfile.NoPhysReg
		e.lqIdx, e.sqIdx = -1, -1
		e.ckptIdx = ckptIdx
		e.dispatchAt = c.cycle + c.cfg.RenameToDispatch + 1
		switch u.Op {
		case isa.Branch:
			e.fetchMispred = fe.fetchMispred
		case isa.Load:
			e.histSnap = fe.histSnap
			e.smbDist, e.smbConf = fe.smbDist, fe.smbConf
		}
		c.renameCSN++

		// Source lookups.
		for i, s := range u.Src {
			if s.Valid() {
				e.srcPhys[i] = c.rf.RM.Get(s)
			} else {
				e.srcPhys[i] = regfile.NoPhysReg
			}
		}

		// Memory dependence prediction (Store Sets). The tables are not
		// rolled back on squashes (Table 1), so an LFST entry can be
		// stale and — after the rename counter itself was rolled back —
		// even name a younger µop; a dependence is honoured only when it
		// points strictly backwards (as hardware inum comparison would).
		switch u.Op {
		case isa.Load:
			if dep, ok := c.ss.RenameLoad(u.PC); ok && dep < e.csn {
				e.hasMemDep = true
				e.memDepCSN = dep
			}
		case isa.Store:
			if dep, ok := c.ss.RenameStore(u.PC, e.csn); ok && dep < e.csn {
				e.hasMemDep = true
				e.memDepCSN = dep
			}
		}

		// Move Elimination.
		if c.me.Candidate(u) {
			if c.tryEliminate(e) {
				c.finishRename(e, idx, fe)
				continue
			}
		}

		// Speculative Memory Bypassing.
		if u.Op == isa.Load && c.cfg.SMB.Enabled && e.smbConf && e.smbDist > 0 {
			c.trySMB(e)
		}

		// Destination allocation for non-shared µops.
		if u.HasDest() && !e.eliminated && !e.bypassed {
			p := c.allocReg(u.Dest.Class)
			e.allocatedFL = true
			e.oldDestPhys = c.rf.RM.Get(u.Dest)
			e.oldDestFlag = c.getFlag(u.Dest)
			e.destPhys = p
			c.rf.RM.Set(u.Dest, p)
		}

		c.applyFlagRules(e)
		c.finishRename(e, idx, fe)
	}
}

// renameStall returns the stall counter of the first resource that
// keeps rename from renaming fe, the fetch-queue head, this cycle, in
// the order rename checks them, or nil when none does. Eliminated moves
// will not occupy the scheduler, but rename conservatively requires a
// free slot (elimination can still be rejected by the tracker). The
// checks change no state, so runUntil asks them too, to find cycles in
// which rename cannot act.
func (c *Core) renameStall(fe *fqEntry) *uint64 {
	u := fe.u
	switch {
	case fe.readyAt > c.cycle:
		return &c.stats.StallFrontEnd
	case c.robCount >= c.cfg.ROBSize:
		return &c.stats.StallROB
	case c.iqCount >= c.cfg.IQSize:
		return &c.stats.StallIQ
	case u.Op == isa.Load && c.lqTail-c.lqHead >= uint64(c.cfg.LQSize):
		return &c.stats.StallLQ
	case u.Op == isa.Store && c.sqTail-c.sqHead >= uint64(c.cfg.SQSize):
		return &c.stats.StallSQ
	case u.HasDest() && c.rf.FreeList(u.Dest.Class).Len() == 0:
		return &c.stats.StallFreeList
	case u.IsBranch() && c.liveCkpts == len(c.ckpts):
		return &c.stats.StallCkpt // out of checkpoints
	}
	return nil
}

// traceRenamed reports a rename event to an attached tracer.
func (c *Core) traceRenamed(e *robEntry) {
	if c.tracer != nil {
		c.tracer.Renamed(c.cycle, e.u, e.csn, e.eliminated, e.bypassed)
	}
}

// tryEliminate performs Move Elimination: map the destination onto the
// source's physical register and record the share (§2). Returns false when
// the tracking structure rejects the share (the move then executes
// normally).
func (c *Core) tryEliminate(e *robEntry) bool {
	u := e.u
	src := u.Src[0]
	p := c.rf.RM.Get(src)

	if src == u.Dest {
		// Self-move: the mapping is unchanged and no reference is
		// created; oldDestPhys stays invalid so commit skips reclaim.
		c.me.NoteSelfMove()
		e.eliminated = true
		e.destPhys = p
		e.completed = true
		e.issued = true
		e.readyAt = c.cycle
		return true
	}

	c.stats.noteShareAttempt(e.csn)
	if !c.tracker.TryShare(p, refcount.KindME, u.Dest, src) {
		c.me.NoteRejected()
		return false
	}
	c.me.NoteEliminated()
	e.eliminated = true
	e.destPhys = p
	e.oldDestPhys = c.rf.RM.Get(u.Dest)
	e.oldDestFlag = c.getFlag(u.Dest)
	c.rf.RM.Set(u.Dest, p)
	// Eliminated moves complete at rename: they never issue.
	e.completed = true
	e.issued = true
	e.readyAt = c.cycle
	// Flag both architectural registers (§4.3.4).
	c.setFlag(src, true)
	c.setFlag(u.Dest, true)
	return true
}

// trySMB attempts to bypass the load's destination onto the physical
// register of the instruction `smbDist` µops back, located through the
// producer window (pending-dispatch µops, ROB entries, and — with lazy
// reclaim — recently committed entries, §3.2-3.3).
func (c *Core) trySMB(e *robEntry) {
	u := e.u
	if e.csn < uint64(e.smbDist) {
		return
	}
	target := e.csn - uint64(e.smbDist)
	w := c.windowAt(target)
	if !w.valid || w.csn != target || !w.hasDest {
		return
	}
	if w.destPhys.Class() != u.Dest.Class {
		return // cross-class bypass is not a register share
	}
	fromCommitted := false
	if w.committed {
		if !c.cfg.SMB.BypassCommitted {
			return // case (iii) of §3.2: already out of the window
		}
		if w.epoch != c.epochOf(w.destPhys) {
			return // register already reclaimed: not safe
		}
		fromCommitted = true
	}

	c.stats.noteShareAttempt(e.csn)
	if !c.tracker.TryShare(w.destPhys, refcount.KindSMB, u.Dest, isa.NoReg) {
		c.stats.BypassAborted++
		return
	}
	e.bypassed = true
	e.bypassFromCommitted = fromCommitted
	e.bypassPhys = w.destPhys
	e.destPhys = w.destPhys
	e.oldDestPhys = c.rf.RM.Get(u.Dest)
	e.oldDestFlag = c.getFlag(u.Dest)
	c.rf.RM.Set(u.Dest, w.destPhys)
}

// applyFlagRules maintains the reclaim-filter flags of §4.3.4: loads flag
// their destination, stores flag their data source, other instructions
// clear their destination's flag (ME flagged both already in
// tryEliminate).
func (c *Core) applyFlagRules(e *robEntry) {
	u := e.u
	switch u.Op {
	case isa.Load:
		c.setFlag(u.Dest, true)
	case isa.Store:
		if u.Src[0].Valid() {
			c.setFlag(u.Src[0], true)
		}
	default:
		if u.HasDest() {
			if e.bypassed || e.eliminated {
				c.setFlag(u.Dest, true)
			} else {
				c.setFlag(u.Dest, false)
			}
		}
	}
}

// finishRename inserts the renamed µop into the scheduler/LSQ/producer
// window and takes the branch checkpoint from its fetch-queue slot fe.
func (c *Core) finishRename(e *robEntry, idx int, fe *fqEntry) {
	u := e.u
	c.traceRenamed(e)

	// Producer window entry (reachable by SMB's ROB indexing).
	w := c.windowAt(e.csn)
	*w = winEntry{
		valid:    true,
		csn:      e.csn,
		hasDest:  u.HasDest(),
		destPhys: e.destPhys,
	}
	if u.HasDest() {
		w.epoch = c.epochOf(e.destPhys)
	}

	// LSQ allocation.
	switch u.Op {
	case isa.Load:
		slot := c.lqTail % uint64(len(c.lq))
		c.lq[slot] = lqEntry{valid: true, robIdx: idx, csn: e.csn, addr: u.MemAddr, width: u.Width}
		e.lqIdx = int64(c.lqTail)
		c.lqTail++
	case isa.Store:
		slot := c.sqTail % uint64(len(c.sq))
		c.sq[slot] = sqEntry{valid: true, robIdx: idx, csn: e.csn, pc: u.PC, addr: u.MemAddr, width: u.Width, wrong: u.WrongPath}
		e.sqIdx = int64(c.sqTail)
		c.sqTail++
	}

	// Scheduler entry (eliminated moves skip it).
	if !e.eliminated {
		c.enterIQ(idx, e)
	}

	// Branch checkpoint, capturing post-branch renamer state and the
	// fetch-time front-end snapshot and prediction (§4.1).
	if u.IsBranch() {
		ck := &c.ckpts[e.ckptIdx]
		ck.inUse = true
		ck.csn = e.csn
		ck.rm = c.rf.RM
		ck.flags = c.flags
		ck.flHead[0] = c.rf.FreeList(isa.IntReg).Head()
		ck.flHead[1] = c.rf.FreeList(isa.FPReg).Head()
		ck.tracker = c.tracker.Checkpoint()
		ck.bp = fe.bpSnap
		ck.pred = fe.pred
		ck.resumePos = fe.resumePos
		ck.renameCSN = c.renameCSN
		c.liveCkpts++
	}
}

func (c *Core) freeCheckpointSlot() int {
	for i := range c.ckpts {
		if !c.ckpts[i].inUse {
			return i
		}
	}
	return -1
}

func (c *Core) releaseCheckpoint(idx int) {
	if idx >= 0 && c.ckpts[idx].inUse {
		c.ckpts[idx].inUse = false
		c.tracker.ReleaseSnapshot(c.ckpts[idx].tracker)
		c.ckpts[idx].tracker = nil
		c.liveCkpts--
	}
}

func (c *Core) getFlag(r isa.Reg) bool {
	if !r.Valid() {
		return false
	}
	return c.flags[r.Class][r.Index]
}

func (c *Core) setFlag(r isa.Reg, v bool) {
	if r.Valid() {
		c.flags[r.Class][r.Index] = v
	}
}
