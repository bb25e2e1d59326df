// Package objstore is the storage seam behind sim.Store: a small
// object-store interface over content-addressed entries, with three
// implementations — fs (the sharded atomic temp+rename layout extracted
// from sim), mem (tests and ephemeral workers), and s3 (a stdlib-only
// client for the MinIO-compatible REST subset) — plus a read-through
// local cache tier for remote backends.
//
// Entries are named by the 64-hex SHA-256 of their sim.Key and grouped
// into 256 shards by the first digest byte; backends only ever see
// those names, so every implementation can enforce the same namespace.
// The envelope schema, simulator-version and key-derived-name checks
// stay above this seam, in sim.Store.
package objstore

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
)

// Object describes one stored entry as a backend reports it.
type Object struct {
	// Name is the entry's 64-hex name.
	Name string
	// Size is the entry's byte length.
	Size int64
	// ETag is the backend's opaque content token for cheap change
	// detection ("" when the backend has none).
	ETag string
	// SHA256 is an optional digest hint: the hex SHA-256 of the
	// entry's bytes when the backend can report it without a read
	// ("" otherwise). Consumers that need the digest fall back to
	// Get + hash.
	SHA256 string
}

// Backend is the pluggable object store. Implementations must be safe
// for concurrent use. Names are always 64-hex entry stems and shards
// two-hex prefixes; implementations reject anything else.
type Backend interface {
	// Get returns the entry's bytes. A missing entry returns an
	// error wrapping fs.ErrNotExist.
	Get(ctx context.Context, name string) ([]byte, error)

	// Put writes the entry, atomically replacing any existing bytes:
	// a concurrent reader observes the old content or the new, never
	// a mix. (The store rewrites entries whose envelope header went
	// stale, so replace semantics are required.)
	Put(ctx context.Context, name string, data []byte) error

	// PutIfAbsent writes the entry only if it does not exist,
	// returning whether this call stored it. Fleet lease claims use it
	// so exactly one host wins a shard.
	PutIfAbsent(ctx context.Context, name string, data []byte) (bool, error)

	// Stat reports the entry without fetching its bytes. A missing
	// entry returns an error wrapping fs.ErrNotExist.
	Stat(ctx context.Context, name string) (Object, error)

	// List returns the shard's entries sorted by name. A shard with
	// no entries returns an empty list, not an error.
	List(ctx context.Context, shard string) ([]Object, error)

	// Generation returns a cheap opaque change token for the shard:
	// equal tokens mean the shard's entry set and bytes are unchanged
	// since the token was read (the converse need not hold). ok is
	// false when the backend cannot provide one, in which case
	// callers must rescan.
	Generation(ctx context.Context, shard string) (gen string, ok bool)

	// String describes the backend in -store spec form.
	String() string

	// Close releases backend resources.
	Close() error
}

// ValidName reports whether name is a well-formed 64-hex entry name.
func ValidName(name string) bool { return isHex(name, 64) }

// ValidShard reports whether shard is a well-formed two-hex shard name.
func ValidShard(shard string) bool { return isHex(shard, 2) }

// isHex reports whether s is exactly n lowercase-hex characters.
func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// errBadName is the shared rejection for malformed entry names.
func errBadName(name string) error {
	return fmt.Errorf("objstore: bad entry name %q: want 64 hex characters", name)
}

// errBadShard is the shared rejection for malformed shard names.
func errBadShard(shard string) error {
	return fmt.Errorf("objstore: bad shard name %q: want two hex characters", shard)
}

// TierStats is a point-in-time snapshot of a store's tier counters:
// how many operations the store served and, for cached remote
// backends, how the read traffic split between the local tier and the
// remote one.
type TierStats struct {
	Gets        int64 // Get calls observed
	Puts        int64 // Put + PutIfAbsent calls observed
	Lists       int64 // List calls observed
	LocalHits   int64 // Gets served by the local cache tier
	RemoteGets  int64 // Gets that reached the remote backend
	RemoteBytes int64 // bytes fetched from the remote backend
}

// counters is the shared atomic counter block behind a Metered
// backend; the cache tier increments the tier-split fields.
type counters struct {
	gets        atomic.Int64
	puts        atomic.Int64
	lists       atomic.Int64
	localHits   atomic.Int64
	remoteGets  atomic.Int64
	remoteBytes atomic.Int64
}

func (c *counters) snapshot() TierStats {
	return TierStats{
		Gets:        c.gets.Load(),
		Puts:        c.puts.Load(),
		Lists:       c.lists.Load(),
		LocalHits:   c.localHits.Load(),
		RemoteGets:  c.remoteGets.Load(),
		RemoteBytes: c.remoteBytes.Load(),
	}
}

// Metered wraps a Backend with operation counters. New returns one
// around every backend it builds, so callers can always surface tier
// stats in /metrics.
type Metered struct {
	Backend
	c *counters
}

// Meter wraps b with a fresh counter block. Wrapping an already-wired
// backend (objstore.New output) double-counts; use it on bare
// backends.
func Meter(b Backend) *Metered {
	m := &Metered{Backend: b, c: &counters{}}
	if ct, ok := b.(*cacheTier); ok {
		ct.c = m.c
	}
	return m
}

// Stats returns the current counter snapshot.
func (m *Metered) Stats() TierStats { return m.c.snapshot() }

func (m *Metered) Get(ctx context.Context, name string) ([]byte, error) {
	m.c.gets.Add(1)
	return m.Backend.Get(ctx, name)
}

func (m *Metered) Put(ctx context.Context, name string, data []byte) error {
	m.c.puts.Add(1)
	return m.Backend.Put(ctx, name, data)
}

func (m *Metered) PutIfAbsent(ctx context.Context, name string, data []byte) (bool, error) {
	m.c.puts.Add(1)
	return m.Backend.PutIfAbsent(ctx, name, data)
}

func (m *Metered) List(ctx context.Context, shard string) ([]Object, error) {
	m.c.lists.Add(1)
	return m.Backend.List(ctx, shard)
}

// config collects the optional knobs New accepts.
type config struct {
	endpoint   string
	region     string
	creds      s3Credentials
	cacheDir   string
	httpClient httpDoer
}

// Option configures New.
type Option func(*config)

// WithEndpoint overrides the s3 endpoint URL (MinIO / fake-server
// deployments). Empty keeps the AWS_ENDPOINT_URL environment value or
// the AWS default.
func WithEndpoint(url string) Option { return func(c *config) { c.endpoint = url } }

// WithRegion overrides the signing region.
func WithRegion(region string) Option { return func(c *config) { c.region = region } }

// WithCredentials overrides the s3 access-key pair taken from
// AWS_ACCESS_KEY_ID / AWS_SECRET_ACCESS_KEY.
func WithCredentials(accessKeyID, secretAccessKey string) Option {
	return func(c *config) {
		c.creds = s3Credentials{AccessKeyID: accessKeyID, SecretAccessKey: secretAccessKey}
	}
}

// WithLocalCache layers a read-through fs cache (rooted at dir) in
// front of a remote backend: remote misses fill the local tier, and
// repeat reads are served locally. Ignored for fs: and mem: specs,
// which are already local.
func WithLocalCache(dir string) Option { return func(c *config) { c.cacheDir = dir } }

// WithHTTPClient overrides the HTTP client the s3 backend uses
// (tests inject an httptest client).
func WithHTTPClient(d httpDoer) Option { return func(c *config) { c.httpClient = d } }

// New builds a backend from its -store spec:
//
//	fs:DIR                 sharded store on the local filesystem
//	mem:                   in-process map (tests, ephemeral workers)
//	s3://BUCKET[/PREFIX]   S3/MinIO bucket via the stdlib client
//
// The returned backend is always a *Metered, so callers can type-assert
// for TierStats without tracking what spec produced it.
func New(spec string, opts ...Option) (*Metered, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	var (
		b   Backend
		err error
	)
	switch {
	case strings.HasPrefix(spec, "fs:"):
		dir := strings.TrimPrefix(spec, "fs:")
		if dir == "" {
			return nil, fmt.Errorf("objstore: spec %q: fs: needs a directory", spec)
		}
		b = NewFS(dir)
	case spec == "mem:" || spec == "mem":
		b = NewMem()
	case strings.HasPrefix(spec, "s3://"):
		b, err = newS3FromSpec(spec, &cfg)
		if err != nil {
			return nil, err
		}
		if cfg.cacheDir != "" {
			b = &cacheTier{local: NewFS(cfg.cacheDir), remote: b}
		}
	default:
		return nil, fmt.Errorf("objstore: bad store spec %q: want fs:DIR, mem: or s3://bucket/prefix", spec)
	}
	return Meter(b), nil
}

// envOr returns the environment variable's value, or def when unset.
func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}
