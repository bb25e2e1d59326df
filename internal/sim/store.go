package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"sync/atomic"

	"repro/internal/objstore"
	"repro/internal/wirejson"
)

// storeSchema tags the envelope layout. Bump it when the envelope
// or Result shape changes incompatibly; entries with another schema are
// treated as misses and eventually overwritten.
const storeSchema = "rs1"

// Store is the sharded, content-addressed result store behind the
// -store flag. It is a thin envelope-validation layer over a
// pluggable objstore.Backend — a filesystem directory, shared by a
// whole fleet when its hosts mount it, or an in-process map — and one
// store can serve many concurrent processes and grids of many
// thousands of cells:
//
//   - entries are addressed by the request's content — the entry name is
//     the SHA-256 digest of the sim.Key, so identical requests from any
//     process land on the same entry and distinct requests never collide;
//   - entries fan out into 256 shards keyed by the digest's first byte,
//     keeping any single shard small even for very large grids;
//   - backends write atomically (temp+rename on fs, under a lock on
//     mem), so a reader never observes a partial entry;
//   - every entry carries a versioned header (store schema + simulator
//     identity + the full key); a mismatch on any of them is a miss, so
//     a long-lived store survives simulator rebuilds without ever
//     serving stale or foreign results.
//
// The envelope bytes are canonical (the compact bytes json.Marshal
// writes for a fixed header plus the Result, which envelopeJSON writes
// without encoding/json), so two stores holding the same results under
// the same simulator version are byte-identical across backends — which
// is what makes the manifest root (manifest.go) comparable between an
// fs directory and an in-process map. Entries written indented, as
// earlier builds did, differ only in whitespace and still load.
type Store struct {
	backend objstore.Backend
	dir     string // fs root when filesystem-backed, "" otherwise

	gets, puts, lists atomic.Int64 // backend operations issued (TierStats)
}

// envelope is the stored entry format: a versioned header wrapped
// around the cached Result.
//
//repro:wire
type envelope struct {
	Schema     string  `json:"schema"`      // storeSchema at write time
	SimVersion string  `json:"sim_version"` // cacheVersion at write time
	Key        string  `json:"key"`         // full sim.Key (collision guard)
	Result     *Result `json:"result"`
}

// envelopeJSON writes the envelopes Put stores and decodes them in Load;
// envelopeSize holds the about 1.4 KB of one.
var envelopeJSON = wirejson.For[envelope]()

const envelopeSize = 2 << 10

// NewStore opens (lazily — no I/O happens until the first access) the
// filesystem-backed store rooted at dir.
func NewStore(dir string) *Store { return NewStoreWith(objstore.NewFS(dir)) }

// NewStoreWith wraps an existing backend in a Store.
func NewStoreWith(b objstore.Backend) *Store {
	s := &Store{backend: b}
	if f, ok := b.(*objstore.FS); ok {
		s.dir = f.Root()
	}
	return s
}

// OpenStore builds a store from its -store spec (fs:DIR or mem:, see
// objstore.New). An empty spec returns a nil store and no error:
// storage off.
func OpenStore(spec string) (*Store, error) {
	if spec == "" {
		return nil, nil
	}
	b, err := objstore.New(spec)
	if err != nil {
		return nil, err
	}
	return NewStoreWith(b), nil
}

// Spec describes the store's backend in -store spec form.
func (s *Store) Spec() string { return s.backend.String() }

// TierStats returns the backend operations the store has issued: the
// Gets of Load, the Puts of Put and the shard listings of Len and
// Manifest.
func (s *Store) TierStats() objstore.TierStats {
	return objstore.TierStats{Gets: s.gets.Load(), Puts: s.puts.Load(), Lists: s.lists.Load()}
}

// Close releases the backend's resources.
func (s *Store) Close() error { return s.backend.Close() }

// entryName returns the 64-hex entry name for key.
func entryName(key string) string {
	d := sha256.Sum256([]byte(key))
	return hex.EncodeToString(d[:])
}

// Path returns the entry path for key on a filesystem-backed store:
// <dir>/<shard>/<digest>.json where shard is the first byte of the
// key's SHA-256 digest. Only meaningful on a filesystem-backed store;
// tests use it to inspect and tamper with raw entries.
func (s *Store) Path(key string) string {
	name := entryName(key)
	return filepath.Join(s.dir, name[:2], name+".json")
}

// Load returns the stored result for key, or false on any miss: absent
// entry, unreadable or partial JSON, a backend error, or a header whose
// schema, simulator version or key does not match.
func (s *Store) Load(ctx context.Context, key string) (*Result, bool) {
	s.gets.Add(1)
	data, err := s.backend.Get(ctx, entryName(key))
	if err != nil {
		return nil, false
	}
	var e envelope
	if err := envelopeJSON.Unmarshal(data, &e); err != nil {
		return nil, false
	}
	if e.Schema != storeSchema || e.SimVersion != cacheVersion() || e.Key != key || e.Result == nil {
		return nil, false
	}
	return e.Result, true
}

// Put writes res under key atomically, replacing any existing entry —
// an entry whose envelope header went stale (other schema or simulator
// version) must be rewritable in place. Errors are returned for tests
// and diagnostics, but callers holding the in-memory result may ignore
// them: a failed cache write never affects correctness.
func (s *Store) Put(ctx context.Context, key string, res *Result) error {
	data, err := envelopeJSON.Append(make([]byte, 0, envelopeSize), &envelope{
		Schema:     storeSchema,
		SimVersion: cacheVersion(),
		Key:        key,
		Result:     res,
	})
	if err != nil {
		return err
	}
	s.puts.Add(1)
	return s.backend.Put(ctx, entryName(key), data)
}

// Len returns the number of entries in the store, regardless of schema
// or simulator version. Intended for tests and diagnostics, not hot
// paths, which is why it takes no context.
func (s *Store) Len() int {
	n := 0
	for i := 0; i < ShardCount; i++ {
		objs, err := s.list(context.Background(), shardName(i))
		if err == nil {
			n += len(objs)
		}
	}
	return n
}

// list returns a shard's entries, as the backend's List does, and counts
// the listing.
func (s *Store) list(ctx context.Context, shard string) ([]objstore.Object, error) {
	s.lists.Add(1)
	return s.backend.List(ctx, shard)
}
