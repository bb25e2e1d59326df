// Package objstore is the storage seam behind sim.Store: a small
// object-store interface over content-addressed entries, with two
// implementations — fs (the sharded atomic temp+rename layout extracted
// from sim, shared by every process and host that mounts its directory)
// and mem (tests and single-process runs).
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
	"strings"
)

// Object describes one stored entry as a backend reports it.
type Object struct {
	// Name is the entry's 64-hex name.
	Name string
	// SHA256 is the hex SHA-256 of the entry's bytes.
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

	// List returns the shard's entries sorted by name, each with the
	// digest of its bytes. A shard with no entries returns an empty
	// list, not an error. An entry deleted while the shard is listed
	// may be left out; an entry that exists but cannot be read is an
	// error, never silently skipped.
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

// TierStats is a point-in-time snapshot of a store's operation
// counters: how many reads, writes and shard listings sim.Store issued
// to its backend.
type TierStats struct {
	Gets  int64 // Get calls issued
	Puts  int64 // Put calls issued
	Lists int64 // List calls issued
}

// New builds a backend from its -store spec:
//
//	fs:DIR   sharded store in DIR, shared by every process that opens it
//	mem:     in-process map (tests, results for this process only)
func New(spec string) (Backend, error) {
	switch {
	case strings.HasPrefix(spec, "fs:"):
		dir := strings.TrimPrefix(spec, "fs:")
		if dir == "" {
			return nil, fmt.Errorf("objstore: spec %q: fs: needs a directory", spec)
		}
		return NewFS(dir), nil
	case spec == "mem:":
		return NewMem(), nil
	default:
		return nil, fmt.Errorf("objstore: bad store spec %q: want fs:DIR or mem:", spec)
	}
}
