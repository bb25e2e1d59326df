package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/regfile"
)

// DrainAndAudit stops fetching, drains the pipeline, checks that the
// scheduler emptied with it, forces all deferred (lazy) reclaims, and
// then audits physical register conservation: every
// register must be accounted for exactly once as free, architecturally
// mapped, or retained by the reference-counting structure. With register
// sharing, the failure mode the paper's scheme must exclude is a *leak* —
// a register that is neither free nor reachable — which is exactly what a
// lost `referenced`/`committed` count would produce (§4.3).
//
// It returns an error describing the first discrepancy found. The test
// suite runs it after full simulations under every tracker scheme.
func (c *Core) DrainAndAudit() error {
	// Drain: stop fetch by clearing the front-end queue and refusing to
	// refill it, then cycle until the ROB empties. A recovery during the
	// drain redirects fetch, so fetch is stopped again every cycle.
	for guard := 0; ; guard++ {
		c.fetchStallUntil = ^uint64(0) >> 1
		c.fqHead, c.fqTail = 0, 0
		if c.robCount == 0 {
			break
		}
		if guard > 1_000_000 {
			return fmt.Errorf("core: pipeline failed to drain (%s)", c.debugState())
		}
		c.Cycle()
	}
	// The drained scheduler must hold nothing: no entry counted, ready,
	// or reading a register.
	if c.iqCount != 0 {
		return fmt.Errorf("core: drained scheduler still counts %d entries", c.iqCount)
	}
	for _, m := range c.readySet {
		if m != 0 {
			return fmt.Errorf("core: drained scheduler has ready entries %#x", m)
		}
	}
	for i, m := range c.consumerSets {
		if m != 0 {
			return fmt.Errorf("core: drained scheduler has entries %#x reading register #%d", m, i/c.slotWords)
		}
	}
	// Force every deferred reclaim (lazy mode retains them indefinitely).
	c.drainPendingReclaim(len(c.pendingReclaim))

	// The reachability scratch is reused across invocations (the audit
	// runs after every directed/property simulation; allocating a fresh
	// map per call was a measurable cost there): one flag per physical
	// register, cleared on the way in.
	if len(c.auditMapped) < c.cfg.PhysRegsPerClass {
		c.auditMapped = make([]bool, c.cfg.PhysRegsPerClass)
	}
	for class := 0; class < 2; class++ {
		cls := isa.RegClass(class)
		mapped := c.auditMapped[:c.cfg.PhysRegsPerClass]
		for i := range mapped {
			mapped[i] = false
		}
		// After a drain RM == CRM must hold: every speculative mapping
		// either committed or was squashed.
		nMapped := 0
		for i := 0; i < isa.NumArchRegs; i++ {
			r := isa.Reg{Class: cls, Index: uint8(i)}
			if c.rf.RM.Get(r) != c.rf.CRM.Get(r) {
				return fmt.Errorf("core: drained RM/CRM disagree on %v: %v vs %v",
					r, c.rf.RM.Get(r), c.rf.CRM.Get(r))
			}
			p := c.rf.RM.Get(r)
			if p.Class() != cls {
				return fmt.Errorf("core: %v maps to %v of the wrong class", r, p)
			}
			if !mapped[p.Index()] {
				mapped[p.Index()] = true
				nMapped++
			}
		}

		free, trackedOnly := 0, 0
		for i := 0; i < c.cfg.PhysRegsPerClass; i++ {
			p := regfile.MakePhys(cls, i)
			inFL := c.rf.InFreeList(p)
			if inFL {
				free++
			}
			tracked := c.tracker.IsShared(p)
			switch {
			case inFL && mapped[i]:
				return fmt.Errorf("core: %v is free AND architecturally mapped", p)
			case inFL && tracked:
				return fmt.Errorf("core: %v is free AND still tracked by %s", p, c.tracker.Name())
			case !inFL && !mapped[i] && !tracked:
				return fmt.Errorf("core: %v leaked: neither free, mapped, nor tracked", p)
			}
			if tracked && !mapped[i] && !inFL {
				trackedOnly++
			}
		}
		// Exact conservation. Note that |mapped| can be below
		// NumArchRegs: after an eliminated move commits, two
		// architectural registers legitimately share one physical
		// register (that is the whole point of the paper).
		if free+nMapped+trackedOnly != c.cfg.PhysRegsPerClass {
			return fmt.Errorf("core: %s conservation broken: free=%d mapped=%d tracked-only=%d of %d",
				cls, free, nMapped, trackedOnly, c.cfg.PhysRegsPerClass)
		}
	}
	return nil
}
