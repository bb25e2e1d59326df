package tage

// foldReg is one circular folded-history register of Seznec & Michaud's
// TAGE: the XOR-fold of the newest length history bits into width bits,
// in which the bit of age a sits at position a mod width, exactly as
// Fold computes it. A push rotates the register left by one, inserts
// the new outcome at position 0 and XORs out, at position length mod
// width, the bit that aged past length.
type foldReg struct {
	val    uint32
	mask   uint32
	length uint16 // clamped to 0..MaxHistoryBits as Fold clamps it; 0 with width 0 when Fold is 0
	width  uint8
	outPos uint8 // length % width
}

// compFolds holds one tagged component's history contributions to its
// index and tag hashes, for the history its foldSet describes.
type compFolds struct {
	idxReg, tagReg, tag1Reg uint8 // registers of (HistLen, LogEntries), (HistLen, TagBits), (HistLen, TagBits-1)
	pathLen, logEntries     int
	index                   uint32 // Fold(HistLen, LogEntries) ^ FoldPath(PathLen, LogEntries)
	tag                     uint32 // Fold(HistLen, TagBits) ^ Fold(HistLen, TagBits-1)<<1
}

// foldSet keeps every history fold the tagged components of one
// predictor hash with, for one history. Components that fold the same
// (length, width) pair share a register.
//
// sync moves the set to a new history. When the new history is the old
// one advanced by one push, which is how both the speculative history
// and the commit-order training snapshots mostly advance, each register
// is updated in O(1). Any other history (a checkpoint restore, a flush
// to the committed history, several pushes, an unrelated snapshot) is
// folded afresh with Fold, which stays the oracle.
type foldSet struct {
	hist  History
	regs  []foldReg
	comps []compFolds
}

func newFoldSet(specs []TaggedSpec) foldSet {
	s := foldSet{comps: make([]compFolds, len(specs))}
	for i, t := range specs {
		if t.LogEntries > 32 || t.TagBits > 32 {
			panic("tage: index and tag widths must be at most 32 bits")
		}
		c := &s.comps[i]
		c.idxReg = s.reg(t.HistLen, t.LogEntries)
		c.tagReg = s.reg(t.HistLen, t.TagBits)
		c.tag1Reg = s.reg(t.HistLen, t.TagBits-1)
		c.pathLen, c.logEntries = t.PathLen, t.LogEntries
	}
	s.refold()
	s.derive()
	return s
}

// reg returns the register that folds length bits into width, adding
// it when no component folds that pair yet.
func (s *foldSet) reg(length, width int) uint8 {
	r := foldReg{}
	if length > 0 && width > 0 {
		r.length = uint16(min(length, MaxHistoryBits))
		r.width = uint8(width)
		r.outPos = uint8(int(r.length) % width)
		r.mask = uint32(uint64(1)<<width - 1)
	}
	for i := range s.regs {
		if s.regs[i].length == r.length && s.regs[i].width == r.width {
			return uint8(i)
		}
	}
	s.regs = append(s.regs, r)
	return uint8(len(s.regs) - 1)
}

// sync makes the set describe h.
func (s *foldSet) sync(h *History) {
	if *h == s.hist {
		return
	}
	old := s.hist.bits
	s.hist = *h
	if old != s.hist.bits {
		if pushedOnce(&old, &s.hist.bits) {
			s.push(old[historyWords-1] >> 63)
		} else {
			s.refold()
		}
	}
	s.derive()
}

// pushedOnce reports whether one push turns old into cur.
func pushedOnce(old, cur *[historyWords]uint64) bool {
	return cur[0]>>1|cur[1]<<63 == old[0] &&
		cur[1]>>1|cur[2]<<63 == old[1] &&
		cur[2]>>1|cur[3]<<63 == old[2] &&
		cur[3]>>1 == old[3]&(1<<63-1)
}

// push updates every register for the one push that turned the old
// history into s.hist; dropped is the bit that push shifted off the old
// history's far end. The bit now of age length leaves each register: it
// is s.hist's bit of age length, or dropped when length is
// MaxHistoryBits. (ext has 8 words so that index&7 needs no bounds
// check.)
func (s *foldSet) push(dropped uint64) {
	var ext [8]uint64
	copy(ext[:], s.hist.bits[:])
	ext[historyWords] = dropped
	in := ext[0] & 1
	for i := range s.regs {
		r := &s.regs[i]
		v := uint64(r.val)<<1 | in
		v ^= (ext[(r.length>>6)&7] >> (r.length & 63) & 1) << r.outPos
		v ^= v >> r.width
		r.val = uint32(v) & r.mask
	}
}

// refold recomputes every register from the set's history with Fold.
func (s *foldSet) refold() {
	for i := range s.regs {
		r := &s.regs[i]
		r.val = s.hist.Fold(int(r.length), int(r.width))
	}
}

// derive recomputes each component's index and tag contributions.
func (s *foldSet) derive() {
	for i := range s.comps {
		c := &s.comps[i]
		c.index = s.regs[c.idxReg].val ^ s.hist.FoldPath(c.pathLen, c.logEntries)
		c.tag = s.regs[c.tagReg].val ^ s.regs[c.tag1Reg].val<<1
	}
}

// index is tagged component i's table index for pc.
func (s *foldSet) index(i int, pc uint64, mask uint32) uint32 {
	c := &s.comps[i]
	return (uint32(pc>>2) ^ uint32(pc>>(2+uint(c.logEntries))) ^ c.index) & mask
}

// tag is tagged component i's tag for pc.
func (s *foldSet) tag(i int, pc uint64, mask uint32) uint32 {
	return (uint32(pc>>2) ^ s.comps[i].tag) & mask
}
