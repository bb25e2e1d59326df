package objstore_test

// The backend conformance suite: every Backend implementation — fs,
// mem, and s3 against the in-process fake — must satisfy the same
// contract, because sim.Store and the fleet's lease area are written
// against the interface, not any one implementation. Each subtest runs
// against a fresh backend of each flavor.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/objstore"
	"repro/internal/objstore/s3test"
	"repro/internal/objstore/sigv4"
	"repro/internal/sim"
)

var bg = context.Background()

// flavor builds one backend implementation for the conformance table.
// The cleanup for the s3 flavors closes the httptest server.
type flavor struct {
	name  string
	build func(t *testing.T) objstore.Backend
}

func flavors() []flavor {
	creds := sigv4.Credentials{AccessKeyID: "AKIDCONFORM", SecretAccessKey: "conform-secret"}
	newFake := func(t *testing.T) *httptest.Server {
		t.Helper()
		ts := httptest.NewServer(s3test.New("conformance", creds, "us-east-1"))
		t.Cleanup(ts.Close)
		return ts
	}
	return []flavor{
		{"fs", func(t *testing.T) objstore.Backend {
			b, err := objstore.New("fs:" + t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"mem", func(t *testing.T) objstore.Backend {
			b, err := objstore.New("mem:")
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"s3", func(t *testing.T) objstore.Backend {
			ts := newFake(t)
			b, err := objstore.New("s3://conformance/grid",
				objstore.WithEndpoint(ts.URL),
				objstore.WithCredentials(creds.AccessKeyID, creds.SecretAccessKey),
				objstore.WithRegion("us-east-1"))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
	}
}

// forEachFlavor runs fn as a subtest against a fresh backend of every
// flavor.
func forEachFlavor(t *testing.T, fn func(t *testing.T, b objstore.Backend)) {
	for _, f := range flavors() {
		t.Run(f.name, func(t *testing.T) {
			b := f.build(t)
			defer b.Close()
			fn(t, b)
		})
	}
}

// testName derives a deterministic 64-hex entry name from a seed.
func testName(seed string) string {
	d := sha256.Sum256([]byte(seed))
	return hex.EncodeToString(d[:])
}

func TestConformanceRoundTrip(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, b objstore.Backend) {
		name := testName("round-trip")
		payload := []byte("hello, backend")

		if _, err := b.Get(bg, name); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Get(absent) = %v, want fs.ErrNotExist", err)
		}

		stored, err := b.PutIfAbsent(bg, name, payload)
		if err != nil || !stored {
			t.Fatalf("PutIfAbsent = (%v, %v), want (true, nil)", stored, err)
		}
		got, err := b.Get(bg, name)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("Get = (%q, %v), want stored payload", got, err)
		}
	})
}

func TestConformancePutReplacesAndPutIfAbsentDoesNot(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, b objstore.Backend) {
		name := testName("replace")
		if _, err := b.PutIfAbsent(bg, name, []byte("first")); err != nil {
			t.Fatal(err)
		}

		// A losing PutIfAbsent must not clobber.
		stored, err := b.PutIfAbsent(bg, name, []byte("second"))
		if err != nil {
			t.Fatal(err)
		}
		if stored {
			t.Fatal("PutIfAbsent over an existing entry reported stored=true")
		}
		if got, _ := b.Get(bg, name); string(got) != "first" {
			t.Fatalf("entry = %q after losing PutIfAbsent, want %q", got, "first")
		}

		// Put must replace.
		if err := b.Put(bg, name, []byte("third")); err != nil {
			t.Fatal(err)
		}
		if got, _ := b.Get(bg, name); string(got) != "third" {
			t.Fatalf("entry = %q after Put, want %q", got, "third")
		}
	})
}

func TestConformancePutIfAbsentRace(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, b objstore.Backend) {
		name := testName("race")
		const racers = 8
		payloads := make([][]byte, racers)
		wins := make([]bool, racers)
		errs := make([]error, racers)
		var wg sync.WaitGroup
		for i := range racers {
			payloads[i] = []byte(fmt.Sprintf("racer %d payload", i))
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				wins[i], errs[i] = b.PutIfAbsent(bg, name, payloads[i])
			}(i)
		}
		wg.Wait()

		winners := 0
		var winning []byte
		for i := range racers {
			if errs[i] != nil {
				t.Fatalf("racer %d: %v", i, errs[i])
			}
			if wins[i] {
				winners++
				winning = payloads[i]
			}
		}
		if winners != 1 {
			t.Fatalf("%d racers reported stored=true, want exactly 1", winners)
		}
		got, err := b.Get(bg, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, winning) {
			t.Fatalf("entry holds %q, want the winner's payload %q", got, winning)
		}
	})
}

// TestConformanceAtomicVisibility hammers one entry with replacing
// writes of two full payloads while readers poll: every read must see
// one payload in full, never a prefix, suffix or splice.
func TestConformanceAtomicVisibility(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, b objstore.Backend) {
		name := testName("atomic")
		a := bytes.Repeat([]byte("A"), 4096)
		z := bytes.Repeat([]byte("Z"), 4096)
		if err := b.Put(bg, name, a); err != nil {
			t.Fatal(err)
		}

		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p := a
				if i%2 == 1 {
					p = z
				}
				if err := b.Put(bg, name, p); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for range 50 {
			got, err := b.Get(bg, name)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, a) && !bytes.Equal(got, z) {
				t.Fatalf("read a torn entry: %d bytes, first %q last %q",
					len(got), got[:1], got[len(got)-1:])
			}
		}
		close(done)
		wg.Wait()
	})
}

func TestConformanceListByShard(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, b objstore.Backend) {
		// Find seeds landing in two distinct shards, several per shard.
		byShard := map[string][]string{}
		for i := 0; len(byShard) < 2 || len(byShard[firstShard(byShard)]) < 3; i++ {
			n := testName(fmt.Sprintf("list-%d", i))
			byShard[n[:2]] = append(byShard[n[:2]], n)
		}
		for shard, names := range byShard {
			for _, n := range names {
				if err := b.Put(bg, n, []byte("entry "+n)); err != nil {
					t.Fatal(err)
				}
			}
			objs, err := b.List(bg, shard)
			if err != nil {
				t.Fatal(err)
			}
			want := append([]string(nil), names...)
			sort.Strings(want)
			if len(objs) != len(want) {
				t.Fatalf("shard %s: List returned %d entries, want %d", shard, len(objs), len(want))
			}
			for i, o := range objs {
				if o.Name != want[i] {
					t.Fatalf("shard %s: List[%d] = %s, want %s (sorted order)", shard, i, o.Name, want[i])
				}
				if o.SHA256 != "" {
					sum := sha256.Sum256([]byte("entry " + o.Name))
					if o.SHA256 != hex.EncodeToString(sum[:]) {
						t.Fatalf("shard %s: entry %s digest hint is wrong", shard, o.Name)
					}
				}
			}
		}

		// A shard with no entries lists empty without error.
		empty := ""
		for i := 0; i < 256; i++ {
			s := fmt.Sprintf("%02x", i)
			if _, ok := byShard[s]; !ok {
				empty = s
				break
			}
		}
		objs, err := b.List(bg, empty)
		if err != nil || len(objs) != 0 {
			t.Fatalf("List(empty shard %s) = (%v, %v), want ([], nil)", empty, objs, err)
		}
	})
}

// firstShard returns a shard key that already has entries (any one —
// used only to grow the densest shard deterministically enough).
func firstShard(m map[string][]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best := keys[0]
	for _, k := range keys {
		if len(m[k]) > len(m[best]) {
			best = k
		}
	}
	return best
}

func TestConformanceRejectsBadNames(t *testing.T) {
	forEachFlavor(t, func(t *testing.T, b objstore.Backend) {
		bad := []string{"", "zz", "../../etc/passwd", testName("x")[:63], testName("x") + "0",
			"ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789"}
		for _, name := range bad {
			if _, err := b.Get(bg, name); err == nil {
				t.Errorf("Get(%q) accepted a malformed name", name)
			}
			if err := b.Put(bg, name, []byte("x")); err == nil {
				t.Errorf("Put(%q) accepted a malformed name", name)
			}
			if _, err := b.PutIfAbsent(bg, name, []byte("x")); err == nil {
				t.Errorf("PutIfAbsent(%q) accepted a malformed name", name)
			}
		}
		for _, shard := range []string{"", "z", "zzz", "GG", "0", "../"} {
			if _, err := b.List(bg, shard); err == nil {
				t.Errorf("List(%q) accepted a malformed shard", shard)
			}
		}
	})
}

// TestConformanceEnvelopeRoundTrip drives the full sim.Store envelope
// layer over every backend: the same results must produce
// byte-identical entries and equal manifest roots no matter where they
// are stored.
func TestConformanceEnvelopeRoundTrip(t *testing.T) {
	reqs := []sim.Request{}
	for _, entries := range []int{16, 32, 64} {
		cfg := core.DefaultConfig()
		cfg.Tracker.Entries = entries
		reqs = append(reqs, sim.Request{Bench: "crafty", Config: cfg, Warmup: 10, Measure: 10})
	}

	type stored struct {
		root    string
		entries map[string][]byte
	}
	results := map[string]stored{}
	for _, f := range flavors() {
		t.Run(f.name, func(t *testing.T) {
			b := f.build(t)
			defer b.Close()
			s := sim.NewStoreWith(b)
			for i, req := range reqs {
				key := sim.Key(req)
				res := &sim.Result{Bench: req.Bench, StaticUops: i + 1}
				if err := s.Put(bg, key, res); err != nil {
					t.Fatal(err)
				}
				got, ok := s.Load(bg, key)
				if !ok || got.Bench != req.Bench || got.StaticUops != i+1 {
					t.Fatalf("Load(%s) = (%+v, %v) after Put", key, got, ok)
				}
			}
			m, err := s.Manifest(bg)
			if err != nil {
				t.Fatal(err)
			}
			entries := map[string][]byte{}
			for i := 0; i < sim.ShardCount; i++ {
				objs, err := b.List(bg, fmt.Sprintf("%02x", i))
				if err != nil {
					t.Fatal(err)
				}
				for _, obj := range objs {
					data, err := b.Get(bg, obj.Name)
					if err != nil {
						t.Fatal(err)
					}
					entries[obj.Name] = data
				}
			}
			results[f.name] = stored{root: m.Root, entries: entries}
		})
	}

	base := results["fs"]
	if base.root == "" || len(base.entries) != len(reqs) {
		t.Fatalf("fs flavor stored %d entries with root %q", len(base.entries), base.root)
	}
	for name, got := range results {
		if got.root != base.root {
			t.Errorf("%s manifest root %s differs from fs root %s", name, got.root, base.root)
		}
		for entry, data := range base.entries {
			if !bytes.Equal(got.entries[entry], data) {
				t.Errorf("%s entry %s is not byte-identical to the fs entry", name, entry)
			}
		}
	}
}
