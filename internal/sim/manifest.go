package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// The manifest of the sharded content-addressed store: one digest per
// shard plus a root over all 256 of them, so two stores — or two hosts
// reading one shared directory — agree exactly when their roots are
// equal. The manifest is computed over the raw envelope bytes on disk:
// envelopes are written deterministically (compact json.Marshal of a
// fixed header plus the Result), so two stores holding the same results
// under the same simulator version are byte-identical and hash to the
// same root. A fleet drain, regshared -manifest and the cross-backend
// tests compare stores by that root.

// ManifestSchema tags the manifest wire layout. Bump it when the shard
// or root digest recipe changes incompatibly.
const ManifestSchema = "m2"

// ShardCount is the store's fixed directory fan-out: entries shard by
// the first byte of their key digest.
const ShardCount = 256

// Manifest is one store's digest state: the 256 shard digests in shard
// order plus the root they hash to.
//
//repro:wire
type Manifest struct {
	Schema     string   `json:"schema"`
	SimVersion string   `json:"sim_version"`
	Root       string   `json:"root"`
	Entries    int      `json:"entries"`
	Shards     []string `json:"shards"`
}

// shardName returns the shard directory name for shard index i.
func shardName(i int) string {
	return fmt.Sprintf("%02x", i)
}

// emptyShardDigest is the digest of a shard with no entries: the hash
// of the empty entry list. A missing shard directory and an empty one
// are deliberately indistinguishable.
func emptyShardDigest() string {
	h := sha256.Sum256(nil)
	return hex.EncodeToString(h[:])
}

// Manifest scans the whole store and computes its manifest. Each shard
// digest is the SHA-256 of the shard's name-sorted "name digest\n"
// lines, where digest is the hex SHA-256 of the entry's bytes. The root
// is the hex SHA-256 of the 256 hex shard digests, concatenated in
// shard order.
func (s *Store) Manifest(ctx context.Context) (*Manifest, error) {
	m := &Manifest{
		Schema:     ManifestSchema,
		SimVersion: cacheVersion(),
		Shards:     make([]string, ShardCount),
	}
	root := sha256.New()
	for i := range ShardCount {
		entries, digest, err := s.shardState(ctx, shardName(i))
		if err != nil {
			return nil, err
		}
		m.Shards[i] = digest
		m.Entries += entries
		root.Write([]byte(digest))
	}
	m.Root = hex.EncodeToString(root.Sum(nil))
	return m, nil
}

// shardState returns one shard's entry count and digest, from the
// entry digests List reports. A backend that cannot read an entry
// fails List, so an unreadable entry fails the scan rather than drop
// out of the root.
func (s *Store) shardState(ctx context.Context, shard string) (int, string, error) {
	objs, err := s.list(ctx, shard)
	if err != nil {
		return 0, "", fmt.Errorf("sim: listing shard %s: %w", shard, err)
	}
	if len(objs) == 0 {
		// An absent shard and an empty one are deliberately
		// indistinguishable.
		return 0, emptyShardDigest(), nil
	}
	h := sha256.New()
	for _, obj := range objs { // List returns name-sorted entries
		h.Write([]byte(obj.Name + " " + obj.SHA256 + "\n"))
	}
	return len(objs), hex.EncodeToString(h.Sum(nil)), nil
}
