package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// The Merkle manifest over the sharded content-addressed store: a
// versioned tree whose 256 leaves are shard digests, so two stores —
// or two hosts reading one shared bucket — agree exactly when their
// roots are equal. The manifest is computed over the raw envelope
// bytes on disk: envelopes are written deterministically
// (MarshalIndent of a fixed header plus the Result), so two stores
// holding the same results under the same simulator version are
// byte-identical and hash to the same root. A fleet drain, regshared
// -manifest and the cross-backend tests compare stores by that root.

// ManifestSchema tags the manifest wire layout. Bump it when the tree
// shape or digest recipe changes incompatibly.
const ManifestSchema = "m1"

// ShardCount is the store's fixed directory fan-out: entries shard by
// the first byte of their key digest.
const ShardCount = 256

// ManifestHeight is the depth of the binary Merkle tree over the
// shards: 2^ManifestHeight == ShardCount, so a root-to-leaf walk
// crosses ManifestHeight levels.
const ManifestHeight = 8

// Manifest is one store's full Merkle state: the 256 leaf (shard)
// digests in shard order plus the root they hash up to.
//
//repro:wire
type Manifest struct {
	Schema     string   `json:"schema"`
	SimVersion string   `json:"sim_version"`
	Root       string   `json:"root"`
	Height     int      `json:"height"`
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

// hashPair combines two child hashes into their parent's.
func hashPair(left, right string) string {
	h := sha256.Sum256([]byte(left + right))
	return hex.EncodeToString(h[:])
}

// merkleRoot folds the 256 shard digests up to the root.
func merkleRoot(shards []string) string {
	level := append([]string(nil), shards...)
	for len(level) > 1 {
		next := level[:len(level)/2]
		for i := range next {
			next[i] = hashPair(level[2*i], level[2*i+1])
		}
		level = next
	}
	return level[0]
}

// Manifest computes the store's current Merkle manifest. Shard digests
// are cached per shard and revalidated against the backend's generation
// token, so the first call scans the whole store and later calls
// re-read only shards that changed — including changes made by other
// processes sharing the backend, such as fleet hosts draining into one
// bucket. Backends without generation tokens (s3) re-list every time,
// but per-entry ETag caching still avoids re-fetching bytes.
func (s *Store) Manifest(ctx context.Context) (*Manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := &Manifest{
		Schema:     ManifestSchema,
		SimVersion: cacheVersion(),
		Height:     ManifestHeight,
		Shards:     make([]string, ShardCount),
	}
	for i := 0; i < ShardCount; i++ {
		entries, digest, err := s.shardStateLocked(ctx, shardName(i))
		if err != nil {
			return nil, err
		}
		m.Shards[i] = digest
		m.Entries += entries
	}
	m.Root = merkleRoot(m.Shards)
	return m, nil
}

// shardStateLocked returns one shard's entry count and digest, served
// from the per-shard cache when the backend's generation token for the
// shard is unchanged since the cached scan. Callers hold s.mu.
func (s *Store) shardStateLocked(ctx context.Context, shard string) (int, string, error) {
	// Read the generation before listing: a write landing mid-scan moves
	// the token past this value, so the next Manifest call rescans —
	// conservative, never stale.
	gen, genOK := s.backend.Generation(ctx, shard)
	prev := s.shards[shard]
	if prev != nil && prev.valid && prev.genOK && genOK && prev.gen == gen {
		return prev.entries, prev.digest, nil
	}
	objs, err := s.backend.List(ctx, shard)
	if err != nil {
		return 0, "", fmt.Errorf("sim: listing shard %s: %w", shard, err)
	}
	if len(objs) == 0 {
		// An absent shard and an empty one are deliberately
		// indistinguishable.
		s.cacheShard(shard, &shardCache{gen: gen, genOK: genOK, digest: emptyShardDigest(), valid: true})
		return 0, emptyShardDigest(), nil
	}
	entries := 0
	digests := make(map[string]entryDigest, len(objs))
	h := sha256.New()
	for _, obj := range objs { // List returns name-sorted entries
		digest := obj.SHA256
		if digest == "" && prev != nil && obj.ETag != "" {
			// No digest hint: reuse the previous scan's digest when the
			// backend's ETag proves the bytes are unchanged.
			if c, ok := prev.digests[obj.Name]; ok && c.etag == obj.ETag {
				digest = c.digest
			}
		}
		if digest == "" {
			data, err := s.backend.Get(ctx, obj.Name)
			if err != nil {
				continue // deleted mid-scan: the generation move forces a rescan
			}
			d := sha256.Sum256(data)
			digest = hex.EncodeToString(d[:])
		}
		entries++
		digests[obj.Name] = entryDigest{etag: obj.ETag, digest: digest}
		h.Write([]byte(obj.Name + " " + digest + "\n"))
	}
	digest := hex.EncodeToString(h.Sum(nil))
	s.cacheShard(shard, &shardCache{gen: gen, genOK: genOK, digest: digest, entries: entries, digests: digests, valid: true})
	return entries, digest, nil
}

// cacheShard records one shard's freshly scanned state.
func (s *Store) cacheShard(shard string, c *shardCache) {
	if s.shards == nil {
		s.shards = make(map[string]*shardCache)
	}
	s.shards[shard] = c
}

// invalidate drops the shard's cached digest after a local write.
func (s *Store) invalidate(shard string) {
	s.mu.Lock()
	if c, ok := s.shards[shard]; ok {
		c.valid = false
	}
	s.mu.Unlock()
}
