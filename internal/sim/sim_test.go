package sim

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// bg is the test suite's background context for runs that exercise
// behaviors other than cancellation.
var bg = context.Background()

func quickReq(bench string) Request {
	return Request{Bench: bench, Config: core.DefaultConfig(), Warmup: 1_000, Measure: 8_000}
}

// mustRun runs req on r, failing the test on any error.
func mustRun(t *testing.T, r *Runner, req Request) *Result {
	t.Helper()
	res, err := r.Run(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDedupConcurrent: N concurrent callers asking for the same request
// must trigger exactly one simulation.
func TestDedupConcurrent(t *testing.T) {
	r := New()
	const callers = 16
	results := make([]*Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.Run(bg, quickReq("crafty"))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	c := r.Counters()
	if c.Simulated != 1 {
		t.Fatalf("simulated %d times for %d identical concurrent requests, want 1", c.Simulated, callers)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result pointer", i)
		}
	}
}

// TestCacheHitMiss: distinct keys miss, repeated keys hit; the key must
// cover benchmark, configuration and run lengths.
func TestCacheHitMiss(t *testing.T) {
	r := New()
	a := mustRun(t, r, quickReq("crafty"))
	if c := r.Counters(); c.Simulated != 1 || c.MemHits != 0 {
		t.Fatalf("first run: %+v", c)
	}
	if b := mustRun(t, r, quickReq("crafty")); b != a {
		t.Fatal("repeat request did not hit the in-memory store")
	}
	if c := r.Counters(); c.Simulated != 1 || c.MemHits != 1 {
		t.Fatalf("after repeat: %+v", c)
	}

	// Different benchmark, different config, different lengths: all miss.
	mustRun(t, r, quickReq("gcc"))
	me := quickReq("crafty")
	me.Config.ME.Enabled = true
	mustRun(t, r, me)
	long := quickReq("crafty")
	long.Measure += 1
	mustRun(t, r, long)
	if c := r.Counters(); c.Simulated != 4 {
		t.Fatalf("distinct requests deduplicated wrongly: %+v", c)
	}
}

func TestKeyDistinguishesRequests(t *testing.T) {
	base := quickReq("crafty")
	me := base
	me.Config.ME.Enabled = true
	other := base
	other.Bench = "gcc"
	longer := base
	longer.Warmup++
	keys := map[string]bool{Key(base): true, Key(me): true, Key(other): true, Key(longer): true}
	if len(keys) != 4 {
		t.Fatalf("key collisions: %v", keys)
	}
	if Key(base) != Key(quickReq("crafty")) {
		t.Fatal("key not deterministic")
	}
}

// TestDiskRoundTrip: a second runner pointed at the same cache dir loads
// the result instead of simulating.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r1 := New(WithStore(NewStore(dir)))
	want := mustRun(t, r1, quickReq("crafty"))
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("cache dir files = %v, err = %v", files, err)
	}

	r2 := New(WithStore(NewStore(dir)))
	got := mustRun(t, r2, quickReq("crafty"))
	if c := r2.Counters(); c.Simulated != 0 || c.DiskHits != 1 {
		t.Fatalf("second runner did not load from disk: %+v", c)
	}
	if *got != *want {
		t.Fatalf("disk round-trip changed the result:\n got %+v\nwant %+v", got, want)
	}
}

// TestDiskCacheIgnoresCorruptFile: a truncated cache entry falls back to
// simulation instead of failing or returning garbage.
func TestDiskCacheIgnoresCorruptFile(t *testing.T) {
	dir := t.TempDir()
	r1 := New(WithStore(NewStore(dir)))
	mustRun(t, r1, quickReq("crafty"))
	files, _ := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err := os.WriteFile(files[0], []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	r2 := New(WithStore(NewStore(dir)))
	mustRun(t, r2, quickReq("crafty"))
	if c := r2.Counters(); c.Simulated != 1 || c.DiskHits != 0 {
		t.Fatalf("corrupt cache entry not re-simulated: %+v", c)
	}
}

// TestDeterminism: two independent runners produce bit-identical
// statistics for the same request — the property that makes caching and
// deduplication sound at all.
func TestDeterminism(t *testing.T) {
	req := quickReq("gobmk")
	req.Config.ME.Enabled = true
	req.Config.SMB.Enabled = true
	a := mustRun(t, New(), req)
	b := mustRun(t, New(), req)
	if a.S != b.S || a.Tracker != b.Tracker || a.Mem != b.Mem || a.IPC != b.IPC {
		t.Fatalf("repeated runs differ:\n a %+v\n b %+v", a, b)
	}
}

// TestRunAllOrderAndErrors: results come back in request order, and an
// unknown benchmark surfaces as an error without poisoning the store.
func TestRunAllOrderAndErrors(t *testing.T) {
	r := New()
	reqs := []Request{quickReq("crafty"), quickReq("gcc"), quickReq("gobmk")}
	results, err := r.RunAll(bg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Bench != reqs[i].Bench {
			t.Fatalf("result %d is %s, want %s", i, res.Bench, reqs[i].Bench)
		}
	}

	if _, err := r.Run(bg, quickReq("no-such-benchmark")); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := r.Run(bg, quickReq("no-such-benchmark")); err == nil {
		t.Fatal("unknown benchmark accepted on retry")
	}
	if _, err := r.RunAll(bg, []Request{quickReq("crafty"), quickReq("nope")}); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Fatalf("RunAll error = %v, want unknown-benchmark error naming nope", err)
	}
}

// TestWorkerBound: WithWorkers(1) still completes a fan-out wider than
// the pool.
func TestWorkerBound(t *testing.T) {
	r := New(WithWorkers(1))
	reqs := []Request{quickReq("crafty"), quickReq("gcc"), quickReq("gobmk"), quickReq("hmmer")}
	results, err := r.RunAll(bg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results", len(results))
	}
	if c := r.Counters(); c.Simulated != uint64(len(reqs)) {
		t.Fatalf("simulated %d, want %d", c.Simulated, len(reqs))
	}
}
