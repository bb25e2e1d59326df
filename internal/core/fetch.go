package core

import (
	"repro/internal/isa"
	"repro/internal/program"
)

// fetch models the front end of Table 1: up to FetchWidth µops per cycle
// from at most two 16-byte blocks, continuing over at most one taken
// branch, with a 1-cycle L1I. Branches are predicted here (TAGE/BTB/RAS);
// a fetch-time mismatch against the architecturally-correct trace diverges
// fetch down the predicted (wrong) path through the program's static code,
// so wrong-path µops really rename and really get squashed later.
//
//repro:hotpath
func (c *Core) fetch() {
	if c.cycle < c.fetchStallUntil || c.fetchQueueFull() {
		return
	}

	fetched := 0
	blocks := 0
	takenSeen := false
	var curBlock uint64
	haveBlock := false

	for fetched < c.cfg.FetchWidth {
		fe := &c.fq[c.fqTail%fetchQueueSize]
		if !c.diverged {
			fe.u = c.trace.At(c.fetchPos)
			fe.streamIdx = c.fetchPos
		} else {
			var lastAddr uint64
			if si := c.prog.StaticIndex(c.wrongPC); si >= 0 {
				lastAddr = c.lastAddr[si]
			}
			fe.u = &c.wrongPath[c.wrongTail&uint64(len(c.wrongPath)-1)]
			if !program.WrongPathUop(c.prog, c.wrongPC, 1<<63|c.wrongSeq, lastAddr, fe.u) {
				break // fell off static code; wait for recovery
			}
			c.wrongSeq++
			fe.streamIdx = ^uint64(0)
		}
		u := fe.u

		// Block accounting: two 16B blocks per cycle, one taken branch.
		blk := u.PC >> 4
		if !haveBlock || blk != curBlock {
			blocks++
			if blocks > 2 {
				break
			}
			// L1I probe once per new block.
			if c.lastICachePC != blk {
				fill := c.mem.FetchInst(u.PC, c.cycle)
				c.lastICachePC = blk
				if fill > c.cycle+1 {
					c.fetchStallUntil = fill
					break
				}
			}
			curBlock = blk
			haveBlock = true
		}

		fe.readyAt = c.cycle + c.cfg.FrontEndDepth
		if u.Op == isa.Load {
			fe.histSnap = *c.bp.History()
			fe.smbDist, fe.smbConf = 0, false
			if c.dist != nil {
				fe.smbDist, fe.smbConf = c.dist.Predict(u.PC, c.bp.History())
			}
		}

		endCycle := false
		if u.IsBranch() {
			fe.bpSnap = c.bp.Snapshot()
			c.bp.Predict(u, &fe.pred)
			fe.fetchMispred, fe.resumePos = false, 0
			predNext := u.FallThrough
			if fe.pred.Taken {
				predNext = fe.pred.Target
				if takenSeen {
					// Second taken branch: fetch group ends after it.
					endCycle = true
				}
				takenSeen = true
			}
			if !c.diverged {
				actualNext := u.FallThrough
				if u.Taken {
					actualNext = u.Target
				}
				fe.resumePos = c.fetchPos + 1
				if predNext != actualNext {
					fe.fetchMispred = true
					c.diverged = true
					c.wrongPC = predNext
					c.fetchPos++
				} else {
					c.fetchPos++
				}
			} else {
				// Wrong-path branch: follow the prediction.
				c.wrongPC = predNext
			}
		} else {
			if !c.diverged {
				if u.IsMemRef() {
					if si := c.prog.StaticIndex(u.PC); si >= 0 {
						c.lastAddr[si] = u.MemAddr
					}
				}
				c.fetchPos++
			} else {
				c.wrongPC = u.FallThrough
			}
		}

		if u.WrongPath {
			c.wrongTail++
		}
		c.fqTail++
		fetched++
		c.stats.FetchedUops++
		if endCycle {
			break
		}
	}
}

// fetchQueueFull reports whether the front-end queue has less than a
// fetch width free. The sum cannot wrap, as fetchQueueSize minus a
// wider width would.
func (c *Core) fetchQueueFull() bool {
	return c.fqTail-c.fqHead+uint64(c.cfg.FetchWidth) >= fetchQueueSize
}
