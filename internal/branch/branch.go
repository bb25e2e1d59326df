// Package branch assembles the front-end control-flow prediction stack of
// Table 1: a TAGE direction predictor (1+12 components, ~15K entries), a
// 2-way set-associative 4K-entry BTB and a 32-entry return address stack.
//
// The package owns the speculative global history. The core checkpoints a
// HistorySnapshot per in-flight branch and restores it on a squash, which
// is the same checkpoint-based recovery model the renamer uses (§4.1).
package branch

import (
	"repro/internal/isa"
	"repro/internal/tage"
)

// Config sizes the front-end predictors.
type Config struct {
	TAGE       tage.BranchConfig
	BTBEntries int // total entries (2-way)
	BTBWays    int
	RASEntries int
}

// DefaultConfig mirrors Table 1.
func DefaultConfig() Config {
	return Config{
		TAGE:       tage.DefaultBranchConfig(),
		BTBEntries: 4096,
		BTBWays:    2,
		RASEntries: 32,
	}
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint8
}

// rasJournalLen bounds how many RAS pushes can separate a live snapshot
// from the present. Snapshots belong to in-flight branches, so the
// distance is bounded by the front-end queue plus the ROB (~700 µops);
// the ring leaves a generous margin and Restore panics on overflow
// rather than silently corrupting state.
const rasJournalLen = 4096

// rasUndo records the value a RAS push overwrote, so a snapshot restore
// can rewind the stack contents exactly.
type rasUndo struct {
	slot int32
	old  uint64
}

// Predictor is the complete front-end branch prediction unit.
type Predictor struct {
	cfg  Config
	tage *tage.BranchPredictor
	btb  []btbEntry // sets × ways, flattened
	sets int

	ras     []uint64
	rasTop  int
	rasJrnl []rasUndo // push-undo ring
	rasJPos uint64    // total pushes journaled

	hist tage.History

	// Stats
	Lookups     uint64
	CondLookups uint64
	CondMispred uint64
	BTBMisses   uint64
}

// New builds a Predictor from cfg.
func New(cfg Config) *Predictor {
	sets := cfg.BTBEntries / cfg.BTBWays
	return &Predictor{
		cfg:     cfg,
		tage:    tage.NewBranchPredictor(cfg.TAGE),
		btb:     make([]btbEntry, cfg.BTBEntries),
		sets:    sets,
		ras:     make([]uint64, cfg.RASEntries),
		rasJrnl: make([]rasUndo, rasJournalLen),
	}
}

// Snapshot captures the speculative history and RAS state so the core can
// restore them on a pipeline flush. RAS content is covered: the paper's
// 32-entry RAS is small enough that full checkpointing is the realistic
// recovery model for a checkpointed core. Instead of copying the stack
// into every snapshot (one allocation per fetched branch), the snapshot
// records the push-journal position; Restore rewinds the journal,
// undoing every push taken since, which reproduces the full-copy
// semantics exactly.
type Snapshot struct {
	Hist   tage.History
	RASTop int
	// RASJPos is the push-journal position at capture time.
	RASJPos uint64
}

// Snapshot returns the current speculative front-end state.
func (p *Predictor) Snapshot() Snapshot {
	return Snapshot{Hist: p.hist, RASTop: p.rasTop, RASJPos: p.rasJPos}
}

// Restore rewinds the speculative front-end state to s. Snapshots must be
// restored in reverse order of capture (each restore may only rewind),
// which is how checkpoint recovery uses them.
func (p *Predictor) Restore(s *Snapshot) {
	if s.RASJPos > p.rasJPos {
		panic("branch: snapshot restore must rewind, not advance")
	}
	if p.rasJPos-s.RASJPos > uint64(len(p.rasJrnl)) {
		panic("branch: RAS undo journal overflow")
	}
	for j := p.rasJPos; j > s.RASJPos; j-- {
		u := &p.rasJrnl[(j-1)%uint64(len(p.rasJrnl))]
		p.ras[u.slot] = u.old
	}
	p.rasJPos = s.RASJPos
	p.hist = s.Hist
	p.rasTop = s.RASTop
}

// RestoreCommitted overwrites the speculative front-end state with the
// committed history and RAS contents (flush-at-commit recovery, §4.1).
// Every outstanding snapshot is dead after such a flush, so the journal
// continues from the current position.
func (p *Predictor) RestoreCommitted(hist tage.History, ras []uint64, top int) {
	p.hist = hist
	copy(p.ras, ras)
	p.rasTop = top
}

// History exposes the current speculative history (for the SMB distance
// predictor, which indexes on the same global history, §3.1).
func (p *Predictor) History() *tage.History { return &p.hist }

// Prediction is the front-end's verdict for one branch µop.
type Prediction struct {
	Taken  bool
	Target uint64
	// TAGE carries the direction predictor's update state for
	// conditional branches.
	TAGE tage.BranchPrediction
}

// Predict predicts the branch µop u into pr and speculatively updates the
// history and RAS. pr must be handed back to Resolve.
func (p *Predictor) Predict(u *isa.Uop, pr *Prediction) {
	p.Lookups++
	pr.Taken, pr.Target = false, 0

	target, btbHit := p.btbLookup(u.PC)

	switch u.Kind {
	case isa.BrCond:
		p.CondLookups++
		p.tage.Predict(u.PC, &p.hist, &pr.TAGE)
		pr.Taken = pr.TAGE.Taken
		if pr.Taken {
			if btbHit {
				pr.Target = target
			} else {
				// No target known: front-end cannot redirect; treat
				// as not-taken and let execute fix it up.
				p.BTBMisses++
				pr.Taken = false
			}
		}
		p.hist.Push(pr.Taken, u.PC)
	case isa.BrUncond:
		pr.Taken = true
		if btbHit {
			pr.Target = target
		} else {
			p.BTBMisses++
			pr.Target = u.FallThrough // wrong; fixed at execute
		}
	case isa.BrCall:
		pr.Taken = true
		p.rasPush(u.FallThrough)
		if btbHit {
			pr.Target = target
		} else {
			p.BTBMisses++
			pr.Target = u.FallThrough
		}
	case isa.BrRet:
		pr.Taken = true
		pr.Target = p.rasPop()
	}
	if !pr.Taken {
		pr.Target = u.FallThrough
	}
}

// Resolve trains the predictors with the architecturally-correct outcome.
// mispredicted is returned for the caller's accounting (direction OR
// target mismatch).
func (p *Predictor) Resolve(u *isa.Uop, pr *Prediction) bool {
	misp := pr.Taken != u.Taken || (u.Taken && pr.Target != u.Target)
	if u.Kind == isa.BrCond {
		p.tage.Update(u.PC, &pr.TAGE, u.Taken)
		if pr.TAGE.Taken != u.Taken {
			p.CondMispred++
		}
	}
	if u.Taken {
		p.btbInsert(u.PC, u.Target)
	}
	return misp
}

// FixHistoryAfterResolve re-pushes the corrected outcome after a squash
// restored the pre-branch history.
func (p *Predictor) FixHistoryAfterResolve(u *isa.Uop) {
	if u.Kind == isa.BrCond {
		p.hist.Push(u.Taken, u.PC)
	}
	if u.Kind == isa.BrCall {
		p.rasPush(u.FallThrough)
	}
	if u.Kind == isa.BrRet {
		p.rasPop()
	}
}

func (p *Predictor) btbSet(pc uint64) int { return int((pc >> 2) % uint64(p.sets)) }

func (p *Predictor) btbLookup(pc uint64) (uint64, bool) {
	set := p.btbSet(pc)
	base := set * p.cfg.BTBWays
	for w := 0; w < p.cfg.BTBWays; w++ {
		e := &p.btb[base+w]
		if e.valid && e.tag == pc {
			e.lru = 0
			for w2 := 0; w2 < p.cfg.BTBWays; w2++ {
				if w2 != w {
					p.btb[base+w2].lru++
				}
			}
			return e.target, true
		}
	}
	return 0, false
}

func (p *Predictor) btbInsert(pc, target uint64) {
	set := p.btbSet(pc)
	base := set * p.cfg.BTBWays
	victim := base
	for w := 0; w < p.cfg.BTBWays; w++ {
		e := &p.btb[base+w]
		if e.valid && e.tag == pc {
			e.target = target
			return
		}
		if !e.valid {
			victim = base + w
			break
		}
		if e.lru > p.btb[victim].lru {
			victim = base + w
		}
	}
	p.btb[victim] = btbEntry{valid: true, tag: pc, target: target, lru: 0}
}

func (p *Predictor) rasPush(addr uint64) {
	p.rasTop = (p.rasTop + 1) % len(p.ras)
	p.rasJrnl[p.rasJPos%uint64(len(p.rasJrnl))] = rasUndo{slot: int32(p.rasTop), old: p.ras[p.rasTop]}
	p.rasJPos++
	p.ras[p.rasTop] = addr
}

func (p *Predictor) rasPop() uint64 {
	addr := p.ras[p.rasTop]
	p.rasTop--
	if p.rasTop < 0 {
		p.rasTop = len(p.ras) - 1
	}
	return addr
}
