// Package objstore is the storage seam behind sim.Store: a small
// object-store interface over content-addressed entries, with three
// implementations — fs (the sharded atomic temp+rename layout extracted
// from sim), mem (tests and ephemeral workers), and s3 (a stdlib-only
// client for the MinIO-compatible REST subset) — and the operation
// counters New wraps around each of them.
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

	// List returns the shard's entries sorted by name. A shard with
	// no entries returns an empty list, not an error. An entry deleted
	// while the shard is listed may be left out; an entry that exists
	// but cannot be read is an error, never silently skipped.
	List(ctx context.Context, shard string) ([]Object, error)

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

// TierStats is a point-in-time snapshot of a store backend's
// operation counters: how many reads, writes and shard listings the
// store issued.
type TierStats struct {
	Gets  int64 // Get calls observed
	Puts  int64 // Put + PutIfAbsent calls observed
	Lists int64 // List calls observed
}

// Metered wraps a Backend with operation counters. New returns one
// around every backend it builds, so callers can always surface tier
// stats in /metrics.
type Metered struct {
	Backend
	gets, puts, lists atomic.Int64
}

// Meter wraps b with fresh counters. Wrapping an already-wired backend
// (objstore.New output) double-counts; use it on bare backends.
func Meter(b Backend) *Metered { return &Metered{Backend: b} }

// Stats returns the current counter snapshot.
func (m *Metered) Stats() TierStats {
	return TierStats{Gets: m.gets.Load(), Puts: m.puts.Load(), Lists: m.lists.Load()}
}

func (m *Metered) Get(ctx context.Context, name string) ([]byte, error) {
	m.gets.Add(1)
	return m.Backend.Get(ctx, name)
}

func (m *Metered) Put(ctx context.Context, name string, data []byte) error {
	m.puts.Add(1)
	return m.Backend.Put(ctx, name, data)
}

func (m *Metered) PutIfAbsent(ctx context.Context, name string, data []byte) (bool, error) {
	m.puts.Add(1)
	return m.Backend.PutIfAbsent(ctx, name, data)
}

func (m *Metered) List(ctx context.Context, shard string) ([]Object, error) {
	m.lists.Add(1)
	return m.Backend.List(ctx, shard)
}

// config collects the optional knobs New accepts.
type config struct {
	endpoint   string
	region     string
	creds      s3Credentials
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
