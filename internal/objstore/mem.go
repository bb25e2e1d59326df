package objstore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"sort"
	"sync"
)

// Mem is the in-process backend: a mutex-guarded map, for tests and
// single-process runs that want store semantics without touching disk.
// Two Services handed the same *Mem share one store — the in-process
// stand-in for a fleet sharing an fs: directory.
type Mem struct {
	mu      sync.Mutex
	entries map[string]memEntry
}

type memEntry struct {
	data   []byte
	sha256 string
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem {
	return &Mem{entries: make(map[string]memEntry)}
}

func (m *Mem) String() string { return "mem:" }

func (m *Mem) Get(ctx context.Context, name string) ([]byte, error) {
	if !ValidName(name) {
		return nil, errBadName(name)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	e, ok := m.entries[name]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("objstore: reading entry %s: %w", name, fs.ErrNotExist)
	}
	// Copy out: callers may hold the slice across later writes.
	return append([]byte(nil), e.data...), nil
}

func (m *Mem) Put(ctx context.Context, name string, data []byte) error {
	if !ValidName(name) {
		return errBadName(name)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	m.store(name, data)
	return nil
}

func (m *Mem) PutIfAbsent(ctx context.Context, name string, data []byte) (bool, error) {
	if !ValidName(name) {
		return false, errBadName(name)
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[name]; ok {
		return false, nil
	}
	m.storeLocked(name, data)
	return true, nil
}

func (m *Mem) store(name string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.storeLocked(name, data)
}

func (m *Mem) storeLocked(name string, data []byte) {
	d := sha256.Sum256(data)
	m.entries[name] = memEntry{
		data:   append([]byte(nil), data...),
		sha256: hex.EncodeToString(d[:]),
	}
}

func (m *Mem) List(ctx context.Context, shard string) ([]Object, error) {
	if !ValidShard(shard) {
		return nil, errBadShard(shard)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var objs []Object
	for name, e := range m.entries {
		if name[:2] != shard {
			continue
		}
		objs = append(objs, Object{Name: name, SHA256: e.sha256})
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Name < objs[j].Name })
	return objs, nil
}

func (m *Mem) Close() error { return nil }
