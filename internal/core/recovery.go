package core

import "repro/internal/isa"

// recoverFromBranch handles a resolved branch misprediction with
// checkpoint-based recovery (§4.1): squash everything younger than the
// branch, copy the checkpointed Rename Map and Free List heads back,
// restore the tracker's referenced fields (gang copy + compare, §4.3.1),
// restore the front-end snapshot and redirect fetch. The extra recovery
// latency is the tracker's SquashPenalty — 1 cycle for checkpointable
// schemes, a sequential walk for per-register counters (§4.2).
func (c *Core) recoverFromBranch(brIdx int) {
	br := &c.rob[brIdx]
	if br.ckptIdx < 0 || !c.ckpts[br.ckptIdx].inUse {
		panic("core: mispredicted branch without a live checkpoint")
	}
	ck := &c.ckpts[br.ckptIdx]

	nSquashed := c.squashAfter(brIdx, br.csn)
	if c.tracer != nil {
		c.tracer.Flush(c.cycle, "branch misprediction", nSquashed)
	}

	// Renamer restore.
	c.rf.RM = ck.rm
	c.flags = ck.flags
	c.rf.FreeList(isa.IntReg).RestoreHead(ck.flHead[0])
	c.rf.FreeList(isa.FPReg).RestoreHead(ck.flHead[1])
	c.rf.NoteHeadRestored(isa.IntReg)
	c.rf.NoteHeadRestored(isa.FPReg)
	for _, p := range c.tracker.Restore(ck.tracker) {
		c.releaseReg(p)
	}
	c.renameCSN = ck.renameCSN

	// Front-end restore: the snapshot was taken before the branch was
	// predicted; re-apply the now-known outcome.
	c.bp.Restore(&ck.bp)
	c.bp.FixHistoryAfterResolve(br.u)

	// Fetch redirect onto the architecturally correct path.
	c.fetchPos = ck.resumePos
	c.diverged = false
	c.fqHead, c.fqTail = 0, 0
	penalty := c.tracker.SquashPenalty(nSquashed)
	c.fetchStallUntil = c.cycle + 1 + penalty
	c.stats.RecoveryCycles += penalty

	// The branch has resolved; it no longer needs its checkpoint (we
	// retain the paper's model of freeing it at retirement for all other
	// branches; this one's state was just consumed).
	br.fetchMispred = false // recovery done; commit should not re-trigger
	c.stats.BranchMispredicts++
}

// squashAfter removes every ROB entry younger than csn (exclusive),
// releasing scheduler entries, LSQ entries and checkpoints. Returns the
// number of squashed µops.
func (c *Core) squashAfter(keepIdx int, csn uint64) int {
	n := 0
	// Walk back from the tail until we reach keepIdx.
	for c.robCount > 0 {
		last := c.robTail - 1
		if last < 0 {
			last = len(c.rob) - 1
		}
		if last == keepIdx {
			break
		}
		e := &c.rob[last]
		if e.valid && e.csn <= csn {
			break
		}
		if e.valid {
			if c.tracer != nil {
				c.tracer.Squashed(c.cycle, e.csn)
			}
			if e.ckptIdx >= 0 {
				c.releaseCheckpoint(e.ckptIdx)
			}
			c.leaveIQ(last, e)
			if e.lqIdx >= 0 {
				c.lq[uint64(e.lqIdx)%uint64(len(c.lq))].valid = false
				if uint64(e.lqIdx) == c.lqTail-1 {
					c.lqTail--
				}
			}
			if e.sqIdx >= 0 {
				c.sq[uint64(e.sqIdx)%uint64(len(c.sq))].valid = false
				if uint64(e.sqIdx) == c.sqTail-1 {
					c.sqTail--
				}
			}
			w := c.windowAt(e.csn)
			if w.valid && w.csn == e.csn {
				w.valid = false
			}
			e.valid = false
			n++
			c.stats.SquashedUops++
		}
		c.robTail = last
		c.robCount--
	}
	// Roll LSQ tails past any interior invalidated entries.
	for c.lqTail > c.lqHead && !c.lq[(c.lqTail-1)%uint64(len(c.lq))].valid {
		c.lqTail--
	}
	for c.sqTail > c.sqHead && !c.sq[(c.sqTail-1)%uint64(len(c.sq))].valid {
		c.sqTail--
	}
	// Prune the in-flight completion list: the rename CSN counter rolls
	// back on recovery, so stale references must not survive into a
	// region where their (slot, csn) pair could be recycled.
	keepIF := c.inflight[:0]
	for _, ref := range c.inflight {
		e := &c.rob[ref.robIdx]
		if e.valid && e.csn == ref.csn {
			keepIF = append(keepIF, ref)
		}
	}
	c.inflight = keepIF
	return n
}
