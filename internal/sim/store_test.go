package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func storeResult(bench string) *Result {
	return &Result{Bench: bench, StaticUops: 1234, TrackerName: "isrb", IPC: 2.5}
}

// TestStoreRoundTrip: Put then Load returns the identical record, under
// the sharded path for the key.
func TestStoreRoundTrip(t *testing.T) {
	s := NewStore(t.TempDir())
	key := "crafty-1000-8000-0011223344556677"
	want := storeResult("crafty")
	if err := s.Put(bg, key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(bg, key)
	if !ok {
		t.Fatal("entry not found after Put")
	}
	if *got != *want {
		t.Fatalf("round-trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	if s.Len() != 1 {
		t.Fatalf("store Len = %d, want 1", s.Len())
	}
}

// TestStoreShardFanOut: entries fan out into two-hex-character shard
// directories derived from the key digest, and the shard dir matches the
// file name prefix.
func TestStoreShardFanOut(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir)
	keys := []string{"a-1-2-x", "b-3-4-y", "c-5-6-z", "d-7-8-w"}
	for _, k := range keys {
		if err := s.Put(bg, k, storeResult(k)); err != nil {
			t.Fatal(err)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(files) != len(keys) {
		t.Fatalf("files = %v, err = %v", files, err)
	}
	shards := map[string]bool{}
	for _, f := range files {
		shard := filepath.Base(filepath.Dir(f))
		if len(shard) != 2 {
			t.Fatalf("shard dir %q is not a two-character prefix", shard)
		}
		if !strings.HasPrefix(filepath.Base(f), shard) {
			t.Fatalf("file %q not in its digest-prefix shard %q", f, shard)
		}
		shards[shard] = true
	}
	if len(shards) < 2 {
		t.Fatalf("four keys landed in %d shard(s); digest fan-out broken", len(shards))
	}
	// No temp files may survive the atomic writes.
	leftovers, _ := filepath.Glob(filepath.Join(dir, "*", ".put*"))
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}

// TestStoreVersionedHeader: entries whose header does not match —
// another store schema, another simulator build, or another key — are
// misses, not stale hits.
func TestStoreVersionedHeader(t *testing.T) {
	s := NewStore(t.TempDir())
	key := "crafty-1-2-abc"
	if err := s.Put(bg, key, storeResult("crafty")); err != nil {
		t.Fatal(err)
	}

	tamper := func(mutate func(*envelope)) {
		t.Helper()
		data, err := os.ReadFile(s.Path(key))
		if err != nil {
			t.Fatal(err)
		}
		var e envelope
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatal(err)
		}
		mutate(&e)
		out, _ := json.Marshal(e)
		if err := os.WriteFile(s.Path(key), out, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	tamper(func(e *envelope) { e.Schema = "rs0" })
	if _, ok := s.Load(bg, key); ok {
		t.Fatal("foreign store schema served as a hit")
	}
	if err := s.Put(bg, key, storeResult("crafty")); err != nil {
		t.Fatal(err)
	}
	tamper(func(e *envelope) { e.SimVersion = "s1-someoldbuild" })
	if _, ok := s.Load(bg, key); ok {
		t.Fatal("foreign simulator version served as a hit")
	}
	if err := s.Put(bg, key, storeResult("crafty")); err != nil {
		t.Fatal(err)
	}
	tamper(func(e *envelope) { e.Key = "other-1-2-abc" })
	if _, ok := s.Load(bg, key); ok {
		t.Fatal("key mismatch (digest collision guard) served as a hit")
	}
}

// TestStoreSharedByRunners: WithStore lets two runners share one store
// instance; the second serves from disk without simulating.
func TestStoreSharedByRunners(t *testing.T) {
	s := NewStore(t.TempDir())
	r1 := New(WithStore(s))
	want := mustRun(t, r1, quickReq("crafty"))
	r2 := New(WithStore(s))
	got := mustRun(t, r2, quickReq("crafty"))
	if c := r2.Counters(); c.Simulated != 0 || c.DiskHits != 1 {
		t.Fatalf("second runner did not hit the shared store: %+v", c)
	}
	if *got != *want {
		t.Fatal("shared-store result differs")
	}
}
