package tage

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestHistoryPushShiftsBitsIn(t *testing.T) {
	var h History
	h.Push(true, 0)
	h.Push(false, 0)
	h.Push(true, 0)
	// Newest outcome in bit 0: sequence (T, F, T) => 101b.
	if got := h.Bits() & 7; got != 0b101 {
		t.Fatalf("history bits = %b, want 101", got)
	}
}

func TestHistoryFoldBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64, length, width uint8) bool {
		h := &History{}
		r := rng.New(seed)
		for i := 0; i < 300; i++ {
			h.Push(r.Bool(0.5), r.Uint64())
		}
		l := int(length)
		w := int(width%31) + 1
		f := h.Fold(l, w)
		return f < 1<<w
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryFoldDependsOnLength(t *testing.T) {
	var a, b History
	for i := 0; i < 100; i++ {
		a.Push(i%3 == 0, uint64(i*4))
		b.Push(i%3 == 0, uint64(i*4))
	}
	// Same history must fold identically.
	if a.Fold(64, 10) != b.Fold(64, 10) {
		t.Fatal("identical histories folded differently")
	}
	// Push one differing outcome: folds over ranges including it differ.
	a.Push(true, 0)
	b.Push(false, 0)
	if a.Fold(8, 8) == b.Fold(8, 8) {
		t.Fatal("fold ignored the newest outcome")
	}
}

func TestHistoryValueSemantics(t *testing.T) {
	var h History
	for i := 0; i < 50; i++ {
		h.Push(i%2 == 0, uint64(i))
	}
	snap := h // plain copy is a checkpoint
	h.Push(true, 4)
	h.Push(true, 8)
	if snap.Bits() == h.Bits() {
		t.Fatal("snapshot aliased the live history")
	}
	h = snap
	if h.Bits() != snap.Bits() || h.Path() != snap.Path() {
		t.Fatal("restore by assignment failed")
	}
}

// TestBranchPredictorLearnsLoop: a loop taken 15 times then not taken once
// must be predictable by TAGE once the trip count fits in history.
func TestBranchPredictorLearnsLoop(t *testing.T) {
	p := NewBranchPredictor(DefaultBranchConfig())
	var h History
	const pc = 0x400
	mispredicts := 0
	total := 0
	for iter := 0; iter < 400; iter++ {
		for i := 0; i < 16; i++ {
			taken := i != 15
			var pr BranchPrediction
			p.Predict(pc, &h, &pr)
			if iter > 200 {
				total++
				if pr.Taken != taken {
					mispredicts++
				}
			}
			p.Update(pc, &pr, taken)
			h.Push(taken, pc)
		}
	}
	rate := float64(mispredicts) / float64(total)
	if rate > 0.05 {
		t.Fatalf("loop branch misprediction rate %.2f after warmup; TAGE should learn a 16-iteration loop", rate)
	}
}

// TestBranchPredictorLearnsAlternating: a strict T/N/T/N pattern is
// trivially history-predictable.
func TestBranchPredictorLearnsAlternating(t *testing.T) {
	p := NewBranchPredictor(DefaultBranchConfig())
	var h History
	const pc = 0x800
	mis, total := 0, 0
	for i := 0; i < 3000; i++ {
		taken := i%2 == 0
		var pr BranchPrediction
		p.Predict(pc, &h, &pr)
		if i > 1000 {
			total++
			if pr.Taken != taken {
				mis++
			}
		}
		p.Update(pc, &pr, taken)
		h.Push(taken, pc)
	}
	if rate := float64(mis) / float64(total); rate > 0.02 {
		t.Fatalf("alternating branch misprediction rate %.2f", rate)
	}
}

// TestBranchPredictorBiased: a heavily biased branch must approach its
// bias rate.
func TestBranchPredictorBiased(t *testing.T) {
	p := NewBranchPredictor(DefaultBranchConfig())
	var h History
	r := rng.New(11)
	mis, total := 0, 0
	for i := 0; i < 5000; i++ {
		taken := !r.Bool(0.02)
		var pr BranchPrediction
		p.Predict(0x1234, &h, &pr)
		if i > 1000 {
			total++
			if pr.Taken != taken {
				mis++
			}
		}
		p.Update(0x1234, &pr, taken)
		h.Push(taken, 0x1234)
	}
	if rate := float64(mis) / float64(total); rate > 0.06 {
		t.Fatalf("biased branch misprediction rate %.2f, want near 0.02", rate)
	}
}

func TestBranchPredictorStorageAndEntries(t *testing.T) {
	p := NewBranchPredictor(DefaultBranchConfig())
	// Table 1: ~15K entries total.
	if n := p.Entries(); n < 12_000 || n > 18_000 {
		t.Fatalf("TAGE entries = %d, want ~15K", n)
	}
	if p.Storage() <= 0 {
		t.Fatal("storage must be positive")
	}
}

// TestValuePredictorLearnsConstantDistance mirrors the distance
// predictor's primary job: a constant distance per PC saturates
// confidence after 15 correct observations (§3.1).
func TestValuePredictorLearnsConstantDistance(t *testing.T) {
	p := NewValuePredictor(DefaultDistanceConfig())
	var h History
	const pc = 0x2000
	for i := 0; i < 20; i++ {
		p.Train(pc, &h, 42)
	}
	pr := p.Predict(pc, &h)
	if !pr.Hit || !pr.Confident || pr.Value != 42 {
		t.Fatalf("after 20 trainings: hit=%v conf=%v val=%d", pr.Hit, pr.Confident, pr.Value)
	}
}

// TestValuePredictorConfidenceResetOnMismatch: §3.1 — a single mismatch
// kills confidence.
func TestValuePredictorConfidenceResetOnMismatch(t *testing.T) {
	p := NewValuePredictor(DefaultDistanceConfig())
	var h History
	const pc = 0x3000
	for i := 0; i < 20; i++ {
		p.Train(pc, &h, 10)
	}
	if pr := p.Predict(pc, &h); !pr.Confident {
		t.Fatal("confidence did not saturate")
	}
	p.Train(pc, &h, 99)
	if pr := p.Predict(pc, &h); pr.Confident {
		t.Fatal("confidence survived a mismatch")
	}
}

// TestValuePredictorHistoryDependentDistance: a distance that alternates
// with the previous branch direction (the paper's motivation for a
// TAGE-like predictor over a PC-indexed one, §3.1).
func TestValuePredictorHistoryDependentDistance(t *testing.T) {
	p := NewValuePredictor(DefaultDistanceConfig())
	var hT, hN History
	// Two distinct histories ahead of the same load PC.
	for i := 0; i < 30; i++ {
		hT.Push(true, 0x10)
		hN.Push(false, 0x10)
	}
	const pc = 0x4000
	for i := 0; i < 25; i++ {
		p.Train(pc, &hT, 7)
		p.Train(pc, &hN, 13)
	}
	prT := p.Predict(pc, &hT)
	prN := p.Predict(pc, &hN)
	if !prT.Confident || prT.Value != 7 {
		t.Fatalf("taken-history prediction: conf=%v val=%d, want 7", prT.Confident, prT.Value)
	}
	if !prN.Confident || prN.Value != 13 {
		t.Fatalf("not-taken-history prediction: conf=%v val=%d, want 13", prN.Confident, prN.Value)
	}
}

func TestValuePredictorEntriesAndStorage(t *testing.T) {
	p := NewValuePredictor(DefaultDistanceConfig())
	// §3.1: 4096 + 512 + 512 + 256 + 128 + 128 = 5632 entries ("5.25K").
	if n := p.Entries(); n != 5632 {
		t.Fatalf("distance predictor entries = %d, want 5632", n)
	}
	// ≈12.2KB in the paper's accounting; our exact bit count lands within
	// [11.5, 13.5] KB.
	kb := float64(p.Storage()) / 8 / 1024
	if kb < 11.5 || kb > 13.5 {
		t.Fatalf("distance predictor storage = %.2fKB, want ≈12.2-12.7KB", kb)
	}
}

func TestMaxComponentsGuard(t *testing.T) {
	cfg := DefaultBranchConfig()
	for len(cfg.Tagged) <= MaxComponents {
		cfg.Tagged = append(cfg.Tagged, cfg.Tagged[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("predictor accepted more components than MaxComponents")
		}
	}()
	NewBranchPredictor(cfg)
}

// foldReference is the original bit-by-bit Fold, kept as the oracle for
// the word-level chunk extraction the production Fold uses.
func foldReference(h *History, length, width int) uint32 {
	if length <= 0 || width <= 0 {
		return 0
	}
	if length > MaxHistoryBits {
		length = MaxHistoryBits
	}
	var folded uint32
	mask := uint32(1)<<width - 1
	for start := 0; start < length; start += width {
		var chunk uint32
		n := width
		if start+n > length {
			n = length - start
		}
		for b := 0; b < n; b++ {
			pos := start + b
			bit := (h.bits[pos/64] >> (pos % 64)) & 1
			chunk |= uint32(bit) << b
		}
		folded ^= chunk
	}
	return folded & mask
}

// TestHistoryFoldMatchesBitByBitReference: the optimized Fold must be
// bit-identical to the naive definition for every (length, width),
// including the word-straddling chunks and the short tail chunk. A
// foldSet's incremental registers, in turn, must equal Fold after every
// step of random push, restore and re-push sequences.
func TestHistoryFoldMatchesBitByBitReference(t *testing.T) {
	r := rng.New(7)
	h := &History{}
	for i := 0; i < 1000; i++ {
		h.Push(r.Bool(0.5), r.Uint64())
		if i%37 != 0 {
			continue
		}
		for width := 1; width <= 32; width++ {
			for length := 0; length <= MaxHistoryBits; length++ {
				if got, want := h.Fold(length, width), foldReference(h, length, width); got != want {
					t.Fatalf("Fold(%d, %d) = %#x, want %#x", length, width, got, want)
				}
			}
		}
	}

	// Every (length, width) pair of both default geometries, plus the
	// edges: length 0 and negative, length below and equal to the width,
	// lengths past MaxHistoryBits (clamped), widths 0, 1 and 32, and the
	// TagBits-1 fold of a 1-bit tag.
	specs := append(append([]TaggedSpec(nil), DefaultBranchConfig().Tagged...), DefaultDistanceConfig().Tagged...)
	specs = append(specs,
		TaggedSpec{LogEntries: 1, TagBits: 32, HistLen: 0, PathLen: 0},
		TaggedSpec{LogEntries: 5, TagBits: 5, HistLen: -3, PathLen: -1},
		TaggedSpec{LogEntries: 7, TagBits: 3, HistLen: 3, PathLen: 3},
		TaggedSpec{LogEntries: 32, TagBits: 32, HistLen: 32, PathLen: 32},
		TaggedSpec{LogEntries: 32, TagBits: 1, HistLen: 256, PathLen: 64},
		TaggedSpec{LogEntries: 9, TagBits: 13, HistLen: 300, PathLen: 70},
		TaggedSpec{LogEntries: 16, TagBits: 32, HistLen: 1000, PathLen: 16},
		TaggedSpec{LogEntries: 0, TagBits: 2, HistLen: 64, PathLen: 8},
		TaggedSpec{LogEntries: 31, TagBits: 2, HistLen: 255, PathLen: 63},
	)
	s := newFoldSet(specs)
	var spec History      // the walk's speculative history
	var committed History // an older history of the same walk
	var snaps []History   // the last 64 histories synced, oldest first
	steps := map[string]int{}
	for step := 0; step < 20000; step++ {
		switch x := r.Intn(100); {
		case x < 55: // a branch predicted
			spec.Push(r.Bool(0.5), r.Uint64())
		case x < 70: // several branches between two lookups
			for n := r.Range(2, 7); n > 0; n-- {
				spec.Push(r.Bool(0.5), r.Uint64())
			}
		case x < 80: // a checkpoint restore, then the corrected outcome
			spec = snaps[r.Intn(len(snaps))]
			spec.Push(r.Bool(0.5), r.Uint64())
		case x < 85: // a flush to the committed history
			spec = committed
		case x < 92: // another lookup under the same history
		default: // the same outcomes under other branch PCs
			spec.path ^= r.Uint64()
		}
		switch {
		case spec == s.hist:
			steps["unchanged"]++
		case spec.bits == s.hist.bits:
			steps["path only"]++
		case pushedOnce(&s.hist.bits, &spec.bits):
			steps["one push"]++
		default:
			steps["refold"]++
		}
		s.sync(&spec)
		for i, reg := range s.regs {
			if want := spec.Fold(int(reg.length), int(reg.width)); reg.val != want {
				t.Fatalf("step %d: register %d (length %d, width %d) = %#x, want %#x", step, i, reg.length, reg.width, reg.val, want)
			}
		}
		for i, c := range s.comps {
			ts := specs[i]
			index := spec.Fold(ts.HistLen, ts.LogEntries) ^ spec.FoldPath(ts.PathLen, ts.LogEntries)
			tag := spec.Fold(ts.HistLen, ts.TagBits) ^ spec.Fold(ts.HistLen, ts.TagBits-1)<<1
			if c.index != index || c.tag != tag {
				t.Fatalf("step %d: component %d %+v folds index %#x tag %#x, want %#x %#x", step, i, ts, c.index, c.tag, index, tag)
			}
		}
		snaps = append(snaps, spec)
		if len(snaps) > 64 {
			snaps = snaps[1:]
		}
		if step%16 == 0 {
			committed = snaps[0]
		}
	}
	for _, kind := range []string{"unchanged", "path only", "one push", "refold"} {
		if steps[kind] == 0 {
			t.Errorf("the walk never synced a %s step: %v", kind, steps)
		}
	}
	t.Logf("sync steps: %v", steps)
}
