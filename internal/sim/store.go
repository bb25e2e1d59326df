package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"path/filepath"

	"repro/internal/objstore"
)

// storeSchema tags the envelope layout. Bump it when the envelope
// or Result shape changes incompatibly; entries with another schema are
// treated as misses and eventually overwritten.
const storeSchema = "rs1"

// Store is the sharded, content-addressed result store behind the
// -store flag. It is a thin envelope-validation layer over a
// pluggable objstore.Backend — the local filesystem, an
// in-process map, or an s3/MinIO bucket shared by a whole fleet — and
// one store (or one shared bucket) can serve many concurrent processes
// and grids of many thousands of cells:
//
//   - entries are addressed by the request's content — the entry name is
//     the SHA-256 digest of the sim.Key, so identical requests from any
//     process land on the same entry and distinct requests never collide;
//   - entries fan out into 256 shards keyed by the digest's first byte,
//     keeping any single shard small even for very large grids;
//   - backends write atomically (temp+rename on fs, conditional PUT on
//     s3), so a reader never observes a partial entry;
//   - every entry carries a versioned header (store schema + simulator
//     identity + the full key); a mismatch on any of them is a miss, so
//     a long-lived store survives simulator rebuilds without ever
//     serving stale or foreign results.
//
// The envelope bytes are canonical (MarshalIndent of a fixed header
// plus the Result), so two stores holding the same results under the
// same simulator version are byte-identical across backends — which is
// what makes the manifest root (manifest.go) comparable between an fs
// host and an s3 bucket.
type Store struct {
	backend objstore.Backend
	dir     string // fs root when filesystem-backed, "" otherwise
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

// NewStore opens (lazily — no I/O happens until the first access) the
// filesystem-backed store rooted at dir.
func NewStore(dir string) *Store {
	return &Store{backend: objstore.Meter(objstore.NewFS(dir)), dir: dir}
}

// NewStoreWith wraps an existing backend in a Store.
func NewStoreWith(b objstore.Backend) *Store {
	s := &Store{backend: b}
	inner := b
	if m, ok := b.(*objstore.Metered); ok {
		inner = m.Backend
	}
	if f, ok := inner.(*objstore.FS); ok {
		s.dir = f.Root()
	}
	return s
}

// OpenStore builds a store from its -store spec (fs:DIR, mem:, or
// s3://bucket/prefix — see objstore.New). An empty spec returns a nil
// store and no error: storage off.
func OpenStore(spec string, opts ...objstore.Option) (*Store, error) {
	if spec == "" {
		return nil, nil
	}
	m, err := objstore.New(spec, opts...)
	if err != nil {
		return nil, err
	}
	return NewStoreWith(m), nil
}

// Spec describes the store's backend in -store spec form.
func (s *Store) Spec() string { return s.backend.String() }

// TierStats returns the backend's operation counters when the backend
// is metered (every Store built by NewStore / OpenStore is), or zeros.
func (s *Store) TierStats() objstore.TierStats {
	if m, ok := s.backend.(*objstore.Metered); ok {
		return m.Stats()
	}
	return objstore.TierStats{}
}

// Close releases the backend's resources.
func (s *Store) Close() error { return s.backend.Close() }

// Dir returns the store's root directory when it is filesystem-backed,
// "" otherwise.
func (s *Store) Dir() string { return s.dir }

// entryName returns the 64-hex entry name for key.
func entryName(key string) string {
	d := sha256.Sum256([]byte(key))
	return hex.EncodeToString(d[:])
}

// Path returns the entry path for key on a filesystem-backed store:
// <dir>/<shard>/<digest>.json where shard is the first byte of the
// key's SHA-256 digest. Only meaningful when Dir() is non-empty; tests
// use it to inspect and tamper with raw entries.
func (s *Store) Path(key string) string {
	name := entryName(key)
	return filepath.Join(s.dir, name[:2], name+".json")
}

// Load returns the stored result for key, or false on any miss: absent
// entry, unreadable or partial JSON, a backend error, or a header whose
// schema, simulator version or key does not match.
func (s *Store) Load(ctx context.Context, key string) (*Result, bool) {
	data, err := s.backend.Get(ctx, entryName(key))
	if err != nil {
		return nil, false
	}
	var e envelope
	if err := json.Unmarshal(data, &e); err != nil {
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
	data, err := json.MarshalIndent(envelope{
		Schema:     storeSchema,
		SimVersion: cacheVersion(),
		Key:        key,
		Result:     res,
	}, "", " ")
	if err != nil {
		return err
	}
	return s.backend.Put(ctx, entryName(key), data)
}

// Len returns the number of entries in the store, regardless of schema
// or simulator version. Intended for tests and diagnostics, not hot
// paths, which is why it takes no context.
func (s *Store) Len() int {
	n := 0
	for i := 0; i < ShardCount; i++ {
		objs, err := s.backend.List(context.Background(), shardName(i))
		if err == nil {
			n += len(objs)
		}
	}
	return n
}
