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

// FuzzStoreLoad feeds arbitrary bytes to Load as the stored entry of a
// fixed key, through a mem: store: the envelope is the store's trust
// boundary, read from a directory any fleet host may have written.
// Load must never panic, and must return a result exactly when the
// envelope decodes with this store's schema, this simulator's version
// and the key asked for, and carries a result, which it returns as
// stored. The seeds cover the compact envelope Put writes and the
// indented one earlier builds wrote (both load to the stored result), a
// truncated entry, a foreign key, a foreign schema and a null result.
func FuzzStoreLoad(f *testing.F) {
	const key = "gen:spill?depth=8-1000-8000-0011223344556677"
	want := storeResult("gen:spill?depth=8")
	want.S.Cycles, want.S.Committed, want.Tracker.ShareFailsFull, want.Mem.L1DMisses = 4321, 8000, 7, 99
	env := func(schema, k string, res *Result) envelope {
		return envelope{Schema: schema, SimVersion: cacheVersion(), Key: k, Result: res}
	}
	marshal := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	open := func(data []byte) (*Store, error) {
		s, err := OpenStore("mem:")
		if err != nil {
			return nil, err
		}
		return s, s.backend.Put(bg, entryName(key), data)
	}

	compact := marshal(env(storeSchema, key, want))
	indented, err := json.MarshalIndent(env(storeSchema, key, want), "", " ")
	if err != nil {
		f.Fatal(err)
	}
	// Put writes the compact form, and both forms load as the result.
	s, err := OpenStore("mem:")
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(bg, key, want); err != nil {
		f.Fatal(err)
	}
	if got, err := s.backend.Get(bg, entryName(key)); err != nil || string(got) != string(compact) {
		f.Fatalf("Put wrote %q (err %v), want the compact envelope %q", got, err, compact)
	}
	for _, data := range [][]byte{compact, indented} {
		s, err := open(data)
		if err != nil {
			f.Fatal(err)
		}
		if got, ok := s.Load(bg, key); !ok || *got != *want {
			f.Fatalf("stored envelope %q does not load as the result (ok %v)", data, ok)
		}
	}

	for _, seed := range [][]byte{
		compact,
		indented,
		compact[:len(compact)/2],
		marshal(env(storeSchema, "gen:spill?depth=8-1000-8000-ffffffffffffffff", want)),
		marshal(env("rs0", key, want)),
		marshal(env(storeSchema, key, nil)),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := open(data)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := s.Load(bg, key)
		var e envelope
		valid := json.Unmarshal(data, &e) == nil &&
			e.Schema == storeSchema && e.SimVersion == cacheVersion() && e.Key == key && e.Result != nil
		if ok != valid {
			t.Fatalf("Load ok = %v on an envelope whose header check reads %v: %q", ok, valid, data)
		}
		if ok && (got == nil || *got != *e.Result) {
			t.Fatalf("Load returned %+v, the envelope holds %+v", got, e.Result)
		}
	})
}
