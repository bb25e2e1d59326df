package core

import "repro/internal/isa"

// commit retires up to CommitWidth completed µops in order. Retiring an
// instruction that overwrites an architectural mapping reclaims the old
// physical register — through the tracking structure's CAM when the
// reclaim flag is set (§4.3.4) — either eagerly or lazily (release_head,
// §3.3). Committing also trains the SMB infrastructure (CSN map, DDT,
// distance predictor, §3.1) and maintains the committed front-end state
// used by commit-level flushes (memory traps, bypass validation failures).
//
//repro:hotpath
func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth; n++ {
		if c.robCount == 0 {
			return
		}
		e := &c.rob[c.robHead]
		if !e.completed {
			return
		}
		if e.u.WrongPath {
			// A wrong-path µop can only reach the head if its branch has
			// not resolved yet — it cannot, commit must wait.
			return
		}
		if e.needsFlush != flushNone {
			c.commitFlush(e)
			return
		}
		c.retire(e)
		e.valid = false
		c.robHead = c.robNext(c.robHead)
		c.robCount--
	}
}

func (c *Core) retire(e *robEntry) {
	u := &e.u
	myCSN := e.csn
	if c.tracer != nil {
		c.tracer.Committed(c.cycle, myCSN)
	}

	c.stats.Committed++
	switch u.Op {
	case isa.Load:
		c.stats.CommittedLoads++
		if e.bypassed {
			c.stats.CommittedBypassed++
			if e.bypassFromCommitted {
				c.stats.BypassedFromCommitted++
			}
		}
	case isa.Store:
		c.stats.CommittedStores++
	case isa.Branch:
		c.stats.CommittedBranches++
		if u.Kind == isa.BrCond {
			c.stats.CommittedCondBranches++
		}
	case isa.Move:
		c.stats.CommittedMoves++
	}
	if e.eliminated {
		c.stats.CommittedEliminated++
	}

	// Architectural mapping update + old register reclaim.
	if u.HasDest() {
		if e.oldDestPhys.Valid() {
			item := reclaimItem{
				phys: e.oldDestPhys,
				arch: u.Dest,
				flag: e.oldDestFlag,
				prod: myCSN,
			}
			if c.cfg.SMB.BypassCommitted {
				c.pendingReclaim = append(c.pendingReclaim, item)
				if len(c.pendingReclaim) >= c.cfg.ROBSize {
					c.drainPendingReclaim(c.cfg.CommitWidth)
				}
			} else {
				c.processReclaim(item)
			}
		}
		c.rf.CRM.Set(u.Dest, e.destPhys)
		if e.allocatedFL {
			c.committedFLHead[u.Dest.Class]++
		}
		if e.eliminated || e.bypassed {
			c.tracker.OnCommitShare(e.destPhys)
		}
	}

	// Committed reclaim-flag maintenance (mirrors applyFlagRules).
	switch u.Op {
	case isa.Load:
		c.setCRMFlag(u.Dest, true)
	case isa.Store:
		if u.Src[0].Valid() {
			c.setCRMFlag(u.Src[0], true)
		}
	default:
		if u.HasDest() {
			c.setCRMFlag(u.Dest, e.eliminated || e.bypassed)
		}
	}
	if e.eliminated {
		c.setCRMFlag(u.Src[0], true)
		c.setCRMFlag(u.Dest, true)
	}

	// Committed front-end state for commit-level flush recovery.
	if u.IsBranch() {
		switch u.Kind {
		case isa.BrCond:
			c.commitHist.Push(u.Taken, u.PC)
		case isa.BrCall:
			c.commitRASTop = (c.commitRASTop + 1) % len(c.commitRAS)
			c.commitRAS[c.commitRASTop] = u.FallThrough
		case isa.BrRet:
			c.commitRASTop--
			if c.commitRASTop < 0 {
				c.commitRASTop = len(c.commitRAS) - 1
			}
		}
		c.releaseCheckpoint(e.ckptIdx)
	}

	// Stores write back after commit; unblock partial-overlap loads and
	// retire the Store Sets LFST entry.
	if u.Op == isa.Store {
		wbAt := c.mem.WriteData(u.PC, u.MemAddr, c.cycle)
		c.resolveBlockedLoads(e.csn, wbAt)
		c.ss.StoreRetired(u.PC, e.csn)
		s := &c.sq[uint64(e.sqIdx)%uint64(len(c.sq))]
		s.valid = false
		for c.sqHead < c.sqTail && !c.sq[c.sqHead%uint64(len(c.sq))].valid {
			c.sqHead++
		}
	}
	if u.Op == isa.Load {
		l := &c.lq[uint64(e.lqIdx)%uint64(len(c.lq))]
		l.valid = false
		for c.lqHead < c.lqTail && !c.lq[c.lqHead%uint64(len(c.lq))].valid {
			c.lqHead++
		}
	}

	// SMB commit-side training.
	if c.trainer != nil {
		c.trainer.Commit(u, myCSN, &e.histSnap)
	}

	// Mark the producer window entry committed (reachable for committed
	// bypassing until its register is reclaimed, §3.3).
	w := c.windowAt(myCSN)
	if w.valid && w.csn == myCSN {
		w.committed = true
	}

	c.commitCSN = myCSN + 1
}

// processReclaim frees the old physical register of a committed
// architectural overwrite, consulting the tracking structure when the
// reclaim flag requires it.
func (c *Core) processReclaim(item reclaimItem) {
	if c.cfg.ReclaimFlagFilter && !item.flag {
		c.stats.ReclaimSkippedByFlag++
		c.releaseReg(item.phys)
		return
	}
	c.stats.noteReclaimCheck(item.prod)
	if c.tracker.OnCommitOverwrite(item.phys, item.arch) {
		c.releaseReg(item.phys)
	}
}

// drainPendingReclaim processes up to n deferred reclaims (lazy mode's
// post-commit scan from release_head, §3.3).
func (c *Core) drainPendingReclaim(n int) {
	if n > len(c.pendingReclaim) {
		n = len(c.pendingReclaim)
	}
	for i := 0; i < n; i++ {
		c.processReclaim(c.pendingReclaim[i])
	}
	c.pendingReclaim = c.pendingReclaim[:copy(c.pendingReclaim, c.pendingReclaim[n:])]
}

func (c *Core) setCRMFlag(r isa.Reg, v bool) {
	if r.Valid() {
		c.crmFlags[r.Class][r.Index] = v
	}
}

// commitFlush handles flush-at-commit events: memory-order traps and SMB
// validation failures. Everything in flight (including the offender) is
// squashed; the renamer is restored from the committed state (CRM +
// committed free-list pointers, §4.1's "no checkpointing necessary" path);
// the tracker rolls back to its architectural reference counts; fetch
// restarts at the offending µop.
func (c *Core) commitFlush(e *robEntry) {
	u := &e.u
	switch e.needsFlush {
	case flushMemOrder:
		c.stats.MemTraps++
	case flushBypass:
		c.stats.BypassMispredicts++
		if c.dist != nil {
			// Reset confidence so the refetched load does not
			// immediately re-bypass with the same wrong distance.
			c.dist.Mispredict(u.PC, &e.histSnap)
		}
	}

	resume := e.streamIdx
	nSquashed := c.robCount
	if c.tracer != nil {
		kind := "memory-order trap"
		if e.needsFlush == flushBypass {
			kind = "bypass validation failure"
		}
		c.tracer.Flush(c.cycle, kind, nSquashed)
	}

	// Squash everything.
	c.forEachROB(func(idx int, re *robEntry) bool {
		if c.tracer != nil {
			c.tracer.Squashed(c.cycle, re.csn)
		}
		if re.ckptIdx >= 0 {
			c.releaseCheckpoint(re.ckptIdx)
		}
		c.leaveIQ(idx, re)
		re.valid = false
		return true
	})
	c.stats.SquashedUops += uint64(nSquashed)
	c.robHead, c.robTail, c.robCount = 0, 0, 0
	c.inflight = c.inflight[:0]
	c.lqHead, c.lqTail = 0, 0
	c.sqHead, c.sqTail = 0, 0
	for i := range c.lq {
		c.lq[i].valid = false
	}
	for i := range c.sq {
		c.sq[i].valid = false
	}
	c.fqHead, c.fqTail = 0, 0

	// Renamer: committed state.
	c.rf.RM = c.rf.CRM
	c.flags = c.crmFlags
	c.rf.FreeList(isa.IntReg).RestoreHead(c.committedFLHead[0])
	c.rf.FreeList(isa.FPReg).RestoreHead(c.committedFLHead[1])
	c.rf.NoteHeadRestored(isa.IntReg)
	c.rf.NoteHeadRestored(isa.FPReg)
	for _, p := range c.tracker.RestoreToCommit() {
		c.releaseReg(p)
	}

	// Front end: committed history and RAS.
	c.bp.RestoreCommitted(c.commitHist, c.commitRAS, c.commitRASTop)

	c.renameCSN = c.commitCSN
	c.fetchPos = resume
	c.diverged = false
	penalty := c.tracker.SquashPenalty(nSquashed)
	c.fetchStallUntil = c.cycle + 1 + penalty
	c.stats.RecoveryCycles += penalty
}
