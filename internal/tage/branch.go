package tage

// TaggedSpec describes one tagged TAGE component.
type TaggedSpec struct {
	LogEntries int // log2 of the number of entries
	TagBits    int
	HistLen    int // global history bits mixed into index and tag
	PathLen    int // path history bits mixed in
}

// BranchConfig sizes a BranchPredictor.
type BranchConfig struct {
	LogBaseEntries int // log2 entries of the bimodal base table
	Tagged         []TaggedSpec
	CounterBits    int // width of the signed prediction counters (3 typical)
	UsefulBits     int // width of the useful counters (2 typical)
}

// DefaultBranchConfig mirrors Table 1: a 1+12-component TAGE totalling
// about 15K entries, with geometric history lengths from 4 to 256 bits.
func DefaultBranchConfig() BranchConfig {
	hist := []int{4, 6, 10, 16, 25, 40, 64, 90, 128, 160, 200, 256}
	logs := []int{10, 10, 10, 10, 10, 10, 10, 10, 9, 9, 9, 9}
	tags := []int{8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	specs := make([]TaggedSpec, len(hist))
	for i := range hist {
		specs[i] = TaggedSpec{LogEntries: logs[i], TagBits: tags[i], HistLen: hist[i], PathLen: min(hist[i], 16)}
	}
	return BranchConfig{LogBaseEntries: 12, Tagged: specs, CounterBits: 3, UsefulBits: 2}
}

type taggedEntry struct {
	tag    uint32
	ctr    int8  // signed, centered: >=0 predicts taken
	useful uint8 // replacement protection
}

type taggedTable struct {
	spec    TaggedSpec
	entries []taggedEntry
	mask    uint32
	tagMask uint32
}

// MaxComponents bounds the number of tagged components so prediction
// records can use fixed-size arrays (no per-branch allocation).
const MaxComponents = 16

// BranchPrediction carries the state the predictor needs back at update
// time. The core keeps it, with the history snapshot, in the checkpoint
// of each in-flight branch.
type BranchPrediction struct {
	Taken      bool
	provider   int  // index of the providing tagged component, -1 = base
	altTaken   bool // the alternate prediction
	altProv    int
	provCtr    int8
	indices    [MaxComponents]uint32 // per-component index at prediction time
	tags       [MaxComponents]uint32 // per-component tag at prediction time
	baseIndex  uint32
	newlyAlloc bool // provider was a weak, recently allocated entry
}

// BranchPredictor is a TAGE direction predictor.
type BranchPredictor struct {
	cfg      BranchConfig
	base     []int8 // bimodal counters
	baseMask uint32
	tables   []taggedTable
	ctrMax   int8
	ctrMin   int8
	useMax   uint8
	// useAltOnNA is a small meta-counter: prefer the alternate prediction
	// when the provider entry is freshly allocated (standard TAGE).
	useAltOnNA int8
	tick       uint32 // periodic useful-bit reset
	folds      foldSet
}

// NewBranchPredictor builds a predictor from cfg.
func NewBranchPredictor(cfg BranchConfig) *BranchPredictor {
	if len(cfg.Tagged) > MaxComponents {
		panic("tage: too many tagged components")
	}
	p := &BranchPredictor{
		cfg:      cfg,
		base:     make([]int8, 1<<cfg.LogBaseEntries),
		baseMask: uint32(1)<<cfg.LogBaseEntries - 1,
		ctrMax:   int8(1)<<(cfg.CounterBits-1) - 1,
		useMax:   uint8(1)<<cfg.UsefulBits - 1,
	}
	p.ctrMin = -p.ctrMax - 1
	p.folds = newFoldSet(cfg.Tagged)
	for _, spec := range cfg.Tagged {
		p.tables = append(p.tables, taggedTable{
			spec:    spec,
			entries: make([]taggedEntry, 1<<spec.LogEntries),
			mask:    uint32(1)<<spec.LogEntries - 1,
			tagMask: uint32(1)<<spec.TagBits - 1,
		})
	}
	return p
}

// Storage returns the predictor's storage budget in bits.
func (p *BranchPredictor) Storage() int {
	bits := len(p.base) * 2 // bimodal: 2 bits/entry
	for _, t := range p.tables {
		per := t.spec.TagBits + p.cfg.CounterBits + p.cfg.UsefulBits
		bits += len(t.entries) * per
	}
	return bits
}

// Entries returns the total number of table entries across components.
func (p *BranchPredictor) Entries() int {
	n := len(p.base)
	for _, t := range p.tables {
		n += len(t.entries)
	}
	return n
}

// Predict fills pr with the direction prediction for the branch at pc
// under history h.
func (p *BranchPredictor) Predict(pc uint64, h *History, pr *BranchPrediction) {
	p.folds.sync(h)
	pr.provider, pr.altProv = -1, -1
	pr.provCtr, pr.newlyAlloc = 0, false
	pr.baseIndex = uint32(pc>>2) & p.baseMask
	baseTaken := p.base[pr.baseIndex] >= 0
	pr.Taken, pr.altTaken = baseTaken, baseTaken

	for i := range p.tables {
		t := &p.tables[i]
		pr.indices[i] = p.folds.index(i, pc, t.mask)
		pr.tags[i] = p.folds.tag(i, pc, t.tagMask)
	}
	// Longest-history match provides; second-longest is the alternate.
	for i := len(p.tables) - 1; i >= 0; i-- {
		e := &p.tables[i].entries[pr.indices[i]]
		if e.tag != pr.tags[i] {
			continue
		}
		if pr.provider == -1 {
			pr.provider = i
			pr.provCtr = e.ctr
			pr.Taken = e.ctr >= 0
			pr.newlyAlloc = e.useful == 0 && (e.ctr == 0 || e.ctr == -1)
		} else if pr.altProv == -1 {
			pr.altProv = i
			pr.altTaken = e.ctr >= 0
			break
		}
	}
	if pr.provider >= 0 && pr.altProv == -1 {
		pr.altTaken = baseTaken
	}
	// On a newly allocated provider, optionally trust the alternate.
	if pr.provider >= 0 && pr.newlyAlloc && p.useAltOnNA >= 0 {
		pr.Taken = pr.altTaken
	}
}

func satInc(c int8, max int8) int8 {
	if c < max {
		return c + 1
	}
	return c
}

func satDec(c int8, min int8) int8 {
	if c > min {
		return c - 1
	}
	return c
}

// Update trains the predictor with the resolved outcome, using the
// prediction record captured at fetch time.
func (p *BranchPredictor) Update(pc uint64, pr *BranchPrediction, taken bool) {
	mispredicted := pr.Taken != taken

	// Train the useAltOnNA meta-counter when the provider was fresh and
	// the two predictions disagreed.
	if pr.provider >= 0 && pr.newlyAlloc {
		provTaken := pr.provCtr >= 0
		if provTaken != pr.altTaken {
			if provTaken == taken {
				p.useAltOnNA = satDec(p.useAltOnNA, -8)
			} else {
				p.useAltOnNA = satInc(p.useAltOnNA, 7)
			}
		}
	}

	// Update provider (or base) counter.
	if pr.provider >= 0 {
		e := &p.tables[pr.provider].entries[pr.indices[pr.provider]]
		if e.tag == pr.tags[pr.provider] { // may have been evicted since
			if taken {
				e.ctr = satInc(e.ctr, p.ctrMax)
			} else {
				e.ctr = satDec(e.ctr, p.ctrMin)
			}
			provTaken := pr.provCtr >= 0
			if provTaken != pr.altTaken {
				if provTaken == taken {
					if e.useful < p.useMax {
						e.useful++
					}
				} else if e.useful > 0 {
					e.useful--
				}
			}
		}
	} else {
		c := &p.base[pr.baseIndex]
		if taken {
			*c = satInc(*c, 1)
		} else {
			*c = satDec(*c, -2)
		}
	}

	// On misprediction, allocate in a longer-history component.
	if mispredicted && pr.provider < len(p.tables)-1 {
		p.allocate(pr, taken)
	}
}

func (p *BranchPredictor) allocate(pr *BranchPrediction, taken bool) {
	start := pr.provider + 1
	// Find a non-useful victim among longer components; degrade useful
	// bits when none is free (TAGE's anti-ping-pong policy).
	allocated := false
	for i := start; i < len(p.tables); i++ {
		e := &p.tables[i].entries[pr.indices[i]]
		if e.useful == 0 {
			e.tag = pr.tags[i]
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			allocated = true
			break
		}
	}
	if !allocated {
		for i := start; i < len(p.tables); i++ {
			e := &p.tables[i].entries[pr.indices[i]]
			if e.useful > 0 {
				e.useful--
			}
		}
	}
	// Periodic graceful reset of useful counters.
	p.tick++
	if p.tick&(1<<18-1) == 0 {
		for i := range p.tables {
			for j := range p.tables[i].entries {
				p.tables[i].entries[j].useful >>= 1
			}
		}
	}
}
