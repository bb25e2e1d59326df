package main

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/workloads"
)

// TestBenchReportRoundTrip: a (tiny) bench run must produce a coherent
// report that survives the JSON round-trip and computes a baseline
// speedup.
func TestBenchReportRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	points := []BenchPoint{{Bench: "gzip", Tracker: "isrb", Warmup: 1000, Measure: 5000}}
	rep, err := RunBench(context.Background(), points, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 1 || rep.Points[0].Cycles == 0 || rep.Points[0].CyclesPerSec <= 0 {
		t.Fatalf("malformed report: %+v", rep)
	}
	if r := rep.GMeanCPS / rep.Points[0].CyclesPerSec; r < 1-1e-9 || r > 1+1e-9 {
		t.Fatalf("gmean %f != single point %f", rep.GMeanCPS, rep.Points[0].CyclesPerSec)
	}

	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.GMeanCPS != rep.GMeanCPS || back.Schema != BenchSchema || len(back.Points) != 1 {
		t.Fatalf("round-trip mismatch: %+v vs %+v", back, rep)
	}

	rep2 := *rep
	base := *rep
	base.GMeanCPS = rep.GMeanCPS / 2
	rep2.AttachBaseline(&base, "half")
	if rep2.SpeedupVsBaseline < 1.99 || rep2.SpeedupVsBaseline > 2.01 {
		t.Fatalf("speedup vs halved baseline = %f, want 2.0", rep2.SpeedupVsBaseline)
	}
}

// TestBenchPointsPinned: the pinned sets must stay stable — cross-PR
// comparability is the whole point — and every named benchmark must
// exist in the catalog. The quick set must additionally be an exact
// subset of the full set, or the CI gate's matched-point comparison
// against a full-set baseline stops comparing like with like.
func TestBenchPointsPinned(t *testing.T) {
	quick := BenchPoints(true)
	full := BenchPoints(false)
	if len(quick) != 3 {
		t.Fatalf("quick set has %d points, want 3", len(quick))
	}
	if len(full) != 16 {
		t.Fatalf("full set has %d points, want 16", len(full))
	}
	for _, pt := range append(append([]BenchPoint{}, quick...), full...) {
		if pt.Warmup == 0 || pt.Measure == 0 {
			t.Fatalf("point %+v has no pinned run lengths", pt)
		}
		if _, err := workloads.Resolve(pt.Bench); err != nil {
			t.Fatalf("pinned point names a benchmark outside the catalog: %v", err)
		}
	}
	inFull := make(map[BenchPoint]bool, len(full))
	for _, pt := range full {
		inFull[pt] = true
	}
	for _, pt := range quick {
		if !inFull[pt] {
			t.Fatalf("quick point %+v (run lengths included) is not in the full set", pt)
		}
	}
}

// TestAttachBaselineMatchedPoints: comparing a quick-style subset
// against a full-set baseline must compute the matched-point speedup
// over the shared points only — the whole-report gmean ratio mixes
// different point sets and would gate on an artifact.
func TestAttachBaselineMatchedPoints(t *testing.T) {
	base := &BenchReport{
		Schema:   BenchSchema,
		GMeanCPS: 400, // gmean over all four baseline points
		Points: []BenchResult{
			{Bench: "gzip", Tracker: "isrb", CyclesPerSec: 100},
			{Bench: "crafty", Tracker: "isrb", CyclesPerSec: 400},
			{Bench: "gzip", Tracker: "unlimited", CyclesPerSec: 1600},
			{Bench: "swim", Tracker: "isrb", CyclesPerSec: 6400},
		},
	}
	rep := &BenchReport{
		Schema:   BenchSchema,
		GMeanCPS: 300,
		Points: []BenchResult{
			{Bench: "gzip", Tracker: "isrb", CyclesPerSec: 150},   // 1.5x
			{Bench: "crafty", Tracker: "isrb", CyclesPerSec: 600}, // 1.5x
			{Bench: "hmmer", Tracker: "isrb", CyclesPerSec: 9999}, // unmatched
		},
	}
	rep.AttachBaseline(base, "b")
	if rep.Baseline.MatchedPoints != 2 {
		t.Fatalf("matched %d points, want 2", rep.Baseline.MatchedPoints)
	}
	// gmean(100,400) = 200 on the baseline side.
	if g := rep.Baseline.MatchedGMeanCPS; g < 199.99 || g > 200.01 {
		t.Fatalf("matched baseline gmean = %f, want 200", g)
	}
	if s := rep.SpeedupVsBaselineMatched; s < 1.499 || s > 1.501 {
		t.Fatalf("matched speedup = %f, want 1.5", s)
	}
	// The whole-report ratio keeps its old meaning alongside.
	if s := rep.SpeedupVsBaseline; s < 0.749 || s > 0.751 {
		t.Fatalf("whole-report speedup = %f, want 0.75", s)
	}

	// Disjoint reports: no matched comparison at all.
	alien := &BenchReport{GMeanCPS: 1, Points: []BenchResult{{Bench: "mcf", Tracker: "rda", CyclesPerSec: 1}}}
	alien.AttachBaseline(base, "b")
	if alien.Baseline.MatchedPoints != 0 || alien.SpeedupVsBaselineMatched != 0 {
		t.Fatalf("disjoint reports matched: %+v", alien.Baseline)
	}

	// When both reports record run lengths, a same-named point that ran
	// different lengths must NOT match — rates from different-length
	// runs are not comparable.
	longBase := &BenchReport{GMeanCPS: 100, Points: []BenchResult{
		{Bench: "gzip", Tracker: "isrb", Warmup: 50_000, Measure: 300_000, CyclesPerSec: 100},
		{Bench: "crafty", Tracker: "isrb", Warmup: 50_000, Measure: 300_000, CyclesPerSec: 100},
	}}
	shortRun := &BenchReport{GMeanCPS: 100, Points: []BenchResult{
		{Bench: "gzip", Tracker: "isrb", Warmup: 20_000, Measure: 100_000, CyclesPerSec: 100},
		{Bench: "crafty", Tracker: "isrb", Warmup: 50_000, Measure: 300_000, CyclesPerSec: 200},
	}}
	shortRun.AttachBaseline(longBase, "b")
	if shortRun.Baseline.MatchedPoints != 1 {
		t.Fatalf("length-aware match found %d points, want 1 (the identical-length crafty)", shortRun.Baseline.MatchedPoints)
	}
	if s := shortRun.SpeedupVsBaselineMatched; s < 1.99 || s > 2.01 {
		t.Fatalf("length-aware matched speedup = %f, want 2.0", s)
	}
}

// TestCommittedReportsMatchPinnedPoints: every BENCH_*.json at the
// repository root still loads, and, as the baseline of a run of the
// pinned full set and then of the quick set, matches every point. The
// reports that predate run lengths match on benchmark and tracker.
func TestCommittedReportsMatchPinnedPoints(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH_*.json at the repository root (%v)", err)
	}
	for _, path := range paths {
		base, err := LoadBenchReport(path)
		if err != nil {
			t.Fatal(err)
		}
		if base.Schema != BenchSchema {
			t.Errorf("%s has schema %q, want %q", path, base.Schema, BenchSchema)
		}
		for _, quick := range []bool{false, true} {
			rep := &BenchReport{Schema: BenchSchema, GMeanCPS: 1}
			for _, pt := range BenchPoints(quick) {
				rep.Points = append(rep.Points, BenchResult{Bench: pt.Bench, Tracker: string(pt.Tracker),
					Warmup: pt.Warmup, Measure: pt.Measure, CyclesPerSec: 1})
			}
			rep.AttachBaseline(base, path)
			if got, want := rep.Baseline.MatchedPoints, len(rep.Points); got != want || rep.SpeedupVsBaselineMatched <= 0 {
				t.Errorf("%s as the baseline of the pinned set (quick %v): %d of %d points matched, speedup %g",
					path, quick, got, want, rep.SpeedupVsBaselineMatched)
			}
		}
	}
}
