package core

import "repro/internal/isa"

// writeback completes µops whose results arrive this cycle: it marks
// destination registers ready (waking dependents), validates SMB bypasses
// against the data from the memory hierarchy (§3.2), runs the memory-order
// violation check when stores resolve their addresses, and resolves
// branches — triggering checkpoint recovery on a misprediction.
//
// Instead of walking the full ROB every cycle it scans the in-flight
// list (issued-but-incomplete µops, maintained by issue and pruned on
// squashes). Completions are applied oldest-first, exactly like the old
// ROB-order scan — the order is architecturally visible through the
// memory-order violation checks, which consult other µops' executed
// state.
//
//repro:hotpath
func (c *Core) writeback() {
	keep := c.inflight[:0]
	completing := c.completing[:0]
	for _, ref := range c.inflight {
		e := c.inflightEntry(ref)
		if e == nil {
			continue
		}
		if e.readyAt > c.cycle {
			keep = append(keep, ref) //repro:allow hotalloc -- amortized: appends into a buffer retained on c and resliced to [:0]; steady state never grows
			continue
		}
		completing = append(completing, ref.robIdx) //repro:allow hotalloc -- amortized: appends into a buffer retained on c and resliced to [:0]; steady state never grows
	}
	c.inflight = keep

	// Oldest first (insertion sort: completions per cycle are few).
	for i := 1; i < len(completing); i++ {
		for j := i; j > 0 && c.rob[completing[j]].csn < c.rob[completing[j-1]].csn; j-- {
			completing[j], completing[j-1] = completing[j-1], completing[j]
		}
	}

	mispredIdx := -1
	for _, idx := range completing {
		e := &c.rob[idx]
		if e.completed {
			continue
		}
		if e.readyAt > c.cycle {
			// An older µop completing this same cycle pushed this one's
			// completion into the future (a store's checkViolations
			// re-running a bypassed load's validation access). The old
			// ROB-order scan re-checked readyAt at visit time; re-queue
			// the µop so it completes when the new time arrives.
			c.inflight = append(c.inflight, inflightRef{robIdx: idx, csn: e.csn}) //repro:allow hotalloc -- amortized: appends into a buffer retained on c and resliced to [:0]; steady state never grows
			continue
		}
		c.complete(idx, e)
		if mispredIdx < 0 && e.u.IsBranch() && !e.u.WrongPath && e.fetchMispred {
			mispredIdx = idx
		}
	}
	c.completing = completing[:0]
	if mispredIdx >= 0 {
		c.recoverFromBranch(mispredIdx)
	}
}

// inflightEntry returns the ROB entry of in-flight µop ref, or nil
// when the µop was squashed, its slot recycled, or it has completed.
func (c *Core) inflightEntry(ref inflightRef) *robEntry {
	e := &c.rob[ref.robIdx]
	if !e.valid || e.csn != ref.csn || !e.issued || e.completed {
		return nil
	}
	return e
}

func (c *Core) complete(idx int, e *robEntry) {
	e.completed = true
	if c.tracer != nil {
		c.tracer.Completed(c.cycle, e.csn)
	}
	u := e.u

	// Produce the result and wake its consumers.
	if u.HasDest() && !e.eliminated && !e.bypassed {
		if !c.rf.Ready(e.destPhys) {
			c.wake(e.destPhys)
		}
		c.rf.SetReady(e.destPhys, u.Value)
	}

	switch u.Op {
	case isa.Store:
		s := &c.sq[uint64(e.sqIdx)%uint64(len(c.sq))]
		s.executed = true
		s.dataAt = e.readyAt
		c.checkViolations(s)
	case isa.Load:
		if e.bypassed && !u.WrongPath {
			// Validation: compare the bypassed register against the data
			// from the memory hierarchy (the trace's architecturally
			// correct value).
			if c.rf.Value(e.bypassPhys) != u.Value {
				e.needsFlush = flushBypass
			}
		}
	case isa.Branch:
		if !u.WrongPath {
			c.bp.Resolve(u, &c.ckpts[e.ckptIdx].pred)
		}
	}
}

// checkViolations runs when store s resolves its address: any younger load
// that already read memory (or forwarded from an older store) without
// seeing s has consumed stale data. For a normal load this is a memory
// trap (flush at commit, Store Sets trained). For an SMB-bypassed load the
// dependents consumed the *register*, so only the validation read is
// re-run — the trap is avoided (§3.1).
func (c *Core) checkViolations(s *sqEntry) {
	for i := c.lqHead; i < c.lqTail; i++ {
		l := &c.lq[i%uint64(len(c.lq))]
		if !l.valid || !l.issued || l.csn <= s.csn || l.violated {
			continue
		}
		if l.waitWBStore != 0 || l.doneAt == pendingCompletion {
			continue // not yet performed
		}
		if !overlap(s.addr, s.width, l.addr, l.width) {
			continue
		}
		if l.forwardedCSN != 0 && l.forwardedCSN-1 >= s.csn {
			continue // got its data from this store or a younger one
		}
		if c.coveredByYounger(s, l) {
			continue // a younger executed store masks s for this load
		}
		le := &c.rob[l.robIdx]
		if !le.valid || le.csn != l.csn {
			continue // stale LQ entry
		}
		if le.bypassed {
			// Re-run the validation access only.
			redo := s.dataAt
			if redo < c.cycle {
				redo = c.cycle
			}
			newDone := redo + c.cfg.STLFLatency
			l.forwardedCSN = s.csn + 1
			l.doneAt = newDone
			if le.completed {
				// Validation verdict is unchanged (values are
				// architectural); nothing more to do.
			} else {
				le.readyAt = newDone
			}
			if !le.u.WrongPath {
				c.stats.TrapsAvoidedSMB++
			}
			continue
		}
		l.violated = true
		le.needsFlush = flushMemOrder
		if !le.u.WrongPath {
			c.ss.Violation(le.u.PC, s.pc)
		}
	}
}

// coveredByYounger reports whether some executed store between s and the
// load fully covers the load's bytes: the load's value cannot come from s,
// so s resolving its address is not a violation against this load.
func (c *Core) coveredByYounger(s *sqEntry, l *lqEntry) bool {
	for i := c.sqHead; i < c.sqTail; i++ {
		t := &c.sq[i%uint64(len(c.sq))]
		if !t.valid || !t.executed || t.csn <= s.csn || t.csn >= l.csn {
			continue
		}
		if contains(t.addr, t.width, l.addr, l.width) {
			return true
		}
	}
	return false
}

// resolveBlockedLoads unblocks partial-overlap loads when store csn writes
// back at wbAt (called from commit).
func (c *Core) resolveBlockedLoads(storeCSN uint64, wbAt uint64) {
	for i := c.lqHead; i < c.lqTail; i++ {
		l := &c.lq[i%uint64(len(c.lq))]
		if !l.valid || l.waitWBStore != storeCSN {
			continue
		}
		done := wbAt + c.cfg.Mem.L1D.Latency // read again once the store is in the cache
		l.waitWBStore = 0
		l.doneAt = done
		le := &c.rob[l.robIdx]
		if le.valid && le.csn == l.csn && !le.completed {
			le.readyAt = done
		}
	}
}
