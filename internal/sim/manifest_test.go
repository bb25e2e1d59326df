package sim

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/objstore"
)

// putKeys writes one distinct result per key into s.
func putKeys(t *testing.T, s *Store, keys []string) {
	t.Helper()
	for _, k := range keys {
		if err := s.Put(bg, k, storeResult(k)); err != nil {
			t.Fatal(err)
		}
	}
}

// keyShard returns the shard directory name a key's entry lands in.
func keyShard(s *Store, key string) string {
	return filepath.Base(filepath.Dir(s.Path(key)))
}

// diffShards returns the shards whose digests differ between two
// manifests.
func diffShards(a, b *Manifest) map[string]bool {
	differ := map[string]bool{}
	for i := range a.Shards {
		if a.Shards[i] != b.Shards[i] {
			differ[shardName(i)] = true
		}
	}
	return differ
}

// TestManifestEmptyStore: an empty (even nonexistent) store has a
// well-defined manifest — 256 empty-shard digests — and its root pins
// the root recipe, so a change to it shows up here.
func TestManifestEmptyStore(t *testing.T) {
	s := NewStore(filepath.Join(t.TempDir(), "never-created"))
	m, err := s.Manifest(bg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Entries != 0 {
		t.Fatalf("empty store manifest counts %d entries", m.Entries)
	}
	for i, d := range m.Shards {
		if d != emptyShardDigest() {
			t.Fatalf("shard %d of an empty store has digest %q", i, d)
		}
	}
	if m.Schema != "m2" {
		t.Errorf("manifest schema %q, want m2", m.Schema)
	}
	if want := "b043621ad25433d75343f31616b71f9f0439021a5ff72de369e33e82bd8d7583"; m.Root != want {
		t.Errorf("empty store root %s, want %s", m.Root, want)
	}
}

// hintless reads a backend the way the manifest reads s3: List carries
// no digest hint, so every entry is fetched with Get. A non-nil getErr
// replaces every Get's result.
type hintless struct {
	objstore.Backend
	getErr error
}

func (b hintless) List(ctx context.Context, shard string) ([]objstore.Object, error) {
	objs, err := b.Backend.List(ctx, shard)
	for i := range objs {
		objs[i].SHA256 = ""
	}
	return objs, err
}

func (b hintless) Get(ctx context.Context, name string) ([]byte, error) {
	if b.getErr != nil {
		return nil, b.getErr
	}
	return b.Backend.Get(ctx, name)
}

// TestManifestReadErrors: an entry that cannot be read fails the
// manifest with the backend's error, where skipping it would report
// the root of a store without it. Only an entry that vanished between
// List and Get is skipped.
func TestManifestReadErrors(t *testing.T) {
	mem := objstore.NewMem()
	putKeys(t, NewStoreWith(mem), []string{"r-1", "r-2", "r-3"})
	want, err := NewStoreWith(mem).Manifest(bg)
	if err != nil {
		t.Fatal(err)
	}

	got, err := NewStoreWith(hintless{Backend: mem}).Manifest(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Root != want.Root || got.Entries != 3 {
		t.Fatalf("hint-less manifest has root %s over %d entries, want %s over 3", got.Root, got.Entries, want.Root)
	}

	slowDown := errors.New("s3 GET: status 503 SlowDown")
	if got, err := NewStoreWith(hintless{Backend: mem, getErr: slowDown}).Manifest(bg); !errors.Is(err, slowDown) {
		if err == nil {
			t.Fatalf("manifest with failing reads has root %s over %d entries and no error, want an error wrapping %v", got.Root, got.Entries, slowDown)
		}
		t.Fatalf("manifest with failing reads failed with %v, want an error wrapping %v", err, slowDown)
	}

	empty, err := NewStore(t.TempDir()).Manifest(bg)
	if err != nil {
		t.Fatal(err)
	}
	gone := fmt.Errorf("deleted mid-scan: %w", fs.ErrNotExist)
	got, err = NewStoreWith(hintless{Backend: mem, getErr: gone}).Manifest(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries != 0 || got.Root != empty.Root {
		t.Fatalf("manifest with vanished entries has root %s over %d entries, want the empty store's root %s", got.Root, got.Entries, empty.Root)
	}
}

// TestManifestDeterministicAcrossStores: two stores holding the same
// results are byte-identical on disk and therefore share one root —
// the property fleet drains and cross-backend comparisons rest on.
func TestManifestDeterministicAcrossStores(t *testing.T) {
	keys := []string{"a-1", "b-2", "c-3", "d-4", "e-5"}
	s1 := NewStore(t.TempDir())
	s2 := NewStore(t.TempDir())
	putKeys(t, s1, keys)
	// Different insertion order must not matter.
	for i := len(keys) - 1; i >= 0; i-- {
		if err := s2.Put(bg, keys[i], storeResult(keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	m1, err := s1.Manifest(bg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s2.Manifest(bg)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Root != m2.Root {
		t.Fatalf("same results, different roots:\n%q\n%q", m1.Root, m2.Root)
	}
	if m1.Entries != len(keys) || m2.Entries != len(keys) {
		t.Fatalf("entry counts %d/%d, want %d", m1.Entries, m2.Entries, len(keys))
	}
}

// TestManifestRootFlipsOnMutation: changing any single envelope's bytes
// flips its shard digest and the root; every other shard digest is
// untouched.
func TestManifestRootFlipsOnMutation(t *testing.T) {
	s := NewStore(t.TempDir())
	keys := []string{"k-0", "k-1", "k-2", "k-3", "k-4", "k-5", "k-6", "k-7"}
	putKeys(t, s, keys)
	before, err := s.Manifest(bg)
	if err != nil {
		t.Fatal(err)
	}

	for _, key := range keys {
		path := s.Path(key)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one byte in the envelope body.
		mutated := []byte(strings.Replace(string(data), `"schema"`, `"sChema"`, 1))
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		after, err := s.Manifest(bg)
		if err != nil {
			t.Fatal(err)
		}
		if after.Root == before.Root {
			t.Fatalf("mutating the entry for %q did not flip the root", key)
		}
		shard := keyShard(s, key)
		for i, d := range after.Shards {
			name := shardName(i)
			if name == shard {
				if d == before.Shards[i] {
					t.Fatalf("mutating %q did not flip its shard %s digest", key, shard)
				}
				continue
			}
			if d != before.Shards[i] {
				t.Fatalf("mutating %q in shard %s also flipped shard %s", key, shard, name)
			}
		}
		// Restore for the next iteration.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := s.Manifest(bg)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Root != before.Root {
		t.Fatal("restoring the original bytes did not restore the root")
	}
}

// TestManifestDiffFindsSymmetricDifference: over randomized two-store
// populations, the shard digests differ in exactly the shards holding
// the symmetric difference of the two stores — never a shard both
// sides agree on, never missing one they do not — and the roots are
// equal exactly when no shard differs.
func TestManifestDiffFindsSymmetricDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := range 10 {
		a := NewStore(t.TempDir())
		b := NewStore(t.TempDir())
		nCommon, nA, nB := rng.Intn(30), rng.Intn(12), rng.Intn(12)
		expect := map[string]bool{}
		for i := range nCommon {
			key := fmt.Sprintf("common-%d-%d", round, i)
			putKeys(t, a, []string{key})
			putKeys(t, b, []string{key})
		}
		for i := range nA {
			key := fmt.Sprintf("only-a-%d-%d", round, i)
			putKeys(t, a, []string{key})
			expect[keyShard(a, key)] = true
		}
		for i := range nB {
			key := fmt.Sprintf("only-b-%d-%d", round, i)
			putKeys(t, b, []string{key})
			expect[keyShard(b, key)] = true
		}
		// A shard can host both a common key and an only-X key; the diff
		// must still flag it (handled above: expect is keyed by shard).
		ma, err := a.Manifest(bg)
		if err != nil {
			t.Fatal(err)
		}
		mb, err := b.Manifest(bg)
		if err != nil {
			t.Fatal(err)
		}
		got := diffShards(ma, mb)
		if len(got) != len(expect) {
			t.Fatalf("round %d: diff found shards %v, want %v", round, got, expect)
		}
		for shard := range expect {
			if !got[shard] {
				t.Fatalf("round %d: diff missed differing shard %s", round, shard)
			}
		}
		if (len(expect) == 0) != (ma.Root == mb.Root) {
			t.Fatalf("round %d: root equality %v disagrees with %d differing shards",
				round, ma.Root == mb.Root, len(expect))
		}
	}
}

// TestManifestSeesExternalWrites: a long-lived Store handle must notice
// entries written to its directory by another process (here: another
// handle) — the situation a running regshared host is in while other
// fleet hosts drain into the same store.
func TestManifestSeesExternalWrites(t *testing.T) {
	dir := t.TempDir()
	mine := NewStore(dir)
	putKeys(t, mine, []string{"warm-1", "warm-2"})
	before, err := mine.Manifest(bg)
	if err != nil {
		t.Fatal(err)
	}

	other := NewStore(dir)
	putKeys(t, other, []string{"external-1"})

	after, err := mine.Manifest(bg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Root == before.Root {
		t.Fatal("manifest missed an external write")
	}
	if after.Entries != 3 {
		t.Fatalf("manifest counts %d entries after the external write, want 3", after.Entries)
	}
}
