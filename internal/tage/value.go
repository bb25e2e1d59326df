package tage

// ValueConfig sizes a ValuePredictor, the TAGE-like structure the paper
// uses as the Instruction Distance Predictor (§3.1): a tagged base table
// plus partially tagged components indexed with PC, global branch history
// and path history. Each entry stores a small value (the instruction
// distance, 8 bits suffice for a 192-entry ROB plus in-flight µops) and a
// saturating confidence counter (4 bits; prediction is used only when the
// counter is saturated).
type ValueConfig struct {
	LogBaseEntries int
	BaseTagBits    int
	Tagged         []TaggedSpec
	ValueBits      int
	ConfBits       int
}

// DefaultDistanceConfig mirrors the paper's distance predictor exactly:
// 4096-entry base (5b tag) and five tagged components of 512(10b),
// 512(10b), 256(11b), 128(11b), 128(12b) entries with 2/5/11/27/64 bits of
// global history mixed with 16 bits of path history; 8-bit distances and
// 4-bit confidence counters. Total ≈12.2-12.7KB depending on accounting.
func DefaultDistanceConfig() ValueConfig {
	return ValueConfig{
		LogBaseEntries: 12,
		BaseTagBits:    5,
		Tagged: []TaggedSpec{
			{LogEntries: 9, TagBits: 10, HistLen: 2, PathLen: 16},
			{LogEntries: 9, TagBits: 10, HistLen: 5, PathLen: 16},
			{LogEntries: 8, TagBits: 11, HistLen: 11, PathLen: 16},
			{LogEntries: 7, TagBits: 11, HistLen: 27, PathLen: 16},
			{LogEntries: 7, TagBits: 12, HistLen: 64, PathLen: 16},
		},
		ValueBits: 8,
		ConfBits:  4,
	}
}

type valueEntry struct {
	tag    uint32
	value  uint16
	conf   uint8
	useful uint8
}

type valueTable struct {
	spec    TaggedSpec
	entries []valueEntry
	mask    uint32
	tagMask uint32
}

// ValuePrediction is the result of a ValuePredictor lookup.
type ValuePrediction struct {
	// Value is the predicted payload (meaningful only when Hit).
	Value uint16
	// Confident reports whether the providing entry's confidence counter
	// is saturated; the consumer (SMB) acts only on confident hits.
	Confident bool
	// Hit reports whether any component's tag matched.
	Hit bool
}

// ValuePredictor is a TAGE-like predictor for small integer payloads.
//
// It keeps two sets of history folds: one for Predict, which the front
// end calls on the speculative history, and one for Train, which the
// commit stage calls on fetch-time snapshots in commit order. Each
// sequence advances a push at a time, so each set stays incremental.
type ValuePredictor struct {
	cfg        ValueConfig
	base       []valueEntry
	baseMsk    uint32
	baseTag    uint32
	tables     []valueTable
	confMax    uint8
	tick       uint32
	predFolds  foldSet
	trainFolds foldSet
}

// NewValuePredictor builds a ValuePredictor from cfg.
func NewValuePredictor(cfg ValueConfig) *ValuePredictor {
	p := &ValuePredictor{
		cfg:        cfg,
		base:       make([]valueEntry, 1<<cfg.LogBaseEntries),
		baseMsk:    uint32(1)<<cfg.LogBaseEntries - 1,
		baseTag:    uint32(1)<<cfg.BaseTagBits - 1,
		confMax:    uint8(1)<<cfg.ConfBits - 1,
		predFolds:  newFoldSet(cfg.Tagged),
		trainFolds: newFoldSet(cfg.Tagged),
	}
	for _, spec := range cfg.Tagged {
		p.tables = append(p.tables, valueTable{
			spec:    spec,
			entries: make([]valueEntry, 1<<spec.LogEntries),
			mask:    uint32(1)<<spec.LogEntries - 1,
			tagMask: uint32(1)<<spec.TagBits - 1,
		})
	}
	return p
}

// Storage returns the predictor's storage in bits, counting tag, value and
// confidence per entry (the paper's accounting for the 12.2KB figure).
func (p *ValuePredictor) Storage() int {
	per := p.cfg.BaseTagBits + p.cfg.ValueBits + p.cfg.ConfBits
	bits := len(p.base) * per
	for _, t := range p.tables {
		bits += len(t.entries) * (t.spec.TagBits + p.cfg.ValueBits + p.cfg.ConfBits)
	}
	return bits
}

// Entries returns the total entry count across all components.
func (p *ValuePredictor) Entries() int {
	n := len(p.base)
	for _, t := range p.tables {
		n += len(t.entries)
	}
	return n
}

func (p *ValuePredictor) baseIndexTag(pc uint64) (uint32, uint32) {
	idx := uint32(pc>>2) & p.baseMsk
	tag := uint32(pc>>(2+uint(p.cfg.LogBaseEntries))) & p.baseTag
	return idx, tag
}

// Predict looks up the payload for pc under history h.
func (p *ValuePredictor) Predict(pc uint64, h *History) ValuePrediction {
	p.predFolds.sync(h)
	if _, e := p.provider(&p.predFolds, pc); e != nil {
		return ValuePrediction{Value: e.value, Confident: e.conf == p.confMax, Hit: true}
	}
	idx, tag := p.baseIndexTag(pc)
	if be := &p.base[idx]; be.tag == tag && be.conf > 0 {
		return ValuePrediction{Value: be.value, Confident: be.conf == p.confMax, Hit: true}
	}
	return ValuePrediction{}
}

// provider returns the longest tagged component whose entry for pc, under
// the history f describes, matches with a nonzero confidence, and that
// entry; or -1 and nil.
func (p *ValuePredictor) provider(f *foldSet, pc uint64) (int, *valueEntry) {
	for i := len(p.tables) - 1; i >= 0; i-- {
		t := &p.tables[i]
		e := &t.entries[f.index(i, pc, t.mask)]
		if e.tag == f.tag(i, pc, t.tagMask) && e.conf > 0 {
			return i, e
		}
	}
	return -1, nil
}

// Train updates the predictor with the observed payload for pc under the
// prediction-time history h (the caller re-supplies the snapshot captured
// at fetch). Confidence is incremented on a match and reset to zero on a
// mismatch (§3.1); a mismatch in a tagged provider also triggers an
// allocation in a longer-history component, standard TAGE style.
func (p *ValuePredictor) Train(pc uint64, h *History, actual uint16) {
	p.trainFolds.sync(h)
	if provider, e := p.provider(&p.trainFolds, pc); e != nil {
		if e.value == actual {
			if e.conf < p.confMax {
				e.conf++
			}
			if e.useful < 3 {
				e.useful++
			}
			return
		}
		// Mismatch: reset confidence and retrain the value; allocate a
		// longer-history entry to capture a history-dependent pattern.
		e.conf = 1
		e.value = actual
		if e.useful > 0 {
			e.useful--
		}
		p.allocateLonger(pc, provider, actual)
		return
	}

	// Base provider (or total miss).
	idx, tag := p.baseIndexTag(pc)
	be := &p.base[idx]
	if be.tag == tag && be.conf > 0 {
		if be.value == actual {
			if be.conf < p.confMax {
				be.conf++
			}
			return
		}
		be.conf = 1
		be.value = actual
		p.allocateLonger(pc, -1, actual)
		return
	}
	// Cold miss: claim the base entry.
	be.tag = tag
	be.value = actual
	be.conf = 1
}

// allocateLonger claims an entry for pc in a component longer than
// provider, under the history trainFolds describes.
func (p *ValuePredictor) allocateLonger(pc uint64, provider int, actual uint16) {
	f := &p.trainFolds
	start := provider + 1
	for i := start; i < len(p.tables); i++ {
		t := &p.tables[i]
		e := &t.entries[f.index(i, pc, t.mask)]
		if e.useful == 0 {
			e.tag = f.tag(i, pc, t.tagMask)
			e.value = actual
			e.conf = 1
			return
		}
	}
	for i := start; i < len(p.tables); i++ {
		t := &p.tables[i]
		e := &t.entries[f.index(i, pc, t.mask)]
		if e.useful > 0 {
			e.useful--
		}
	}
	p.tick++
	if p.tick&(1<<16-1) == 0 {
		for i := range p.tables {
			for j := range p.tables[i].entries {
				p.tables[i].entries[j].useful >>= 1
			}
		}
	}
}
