package objstore

import (
	"context"
	"errors"
	"io/fs"
)

// cacheTier layers a local fs store in front of a remote backend as a
// read-through cache: reads try the local tier first and fill it on a
// remote hit; writes go to the remote (the source of truth) and fill
// the local tier on the way back. List and Generation always consult
// the remote, so manifests describe the bucket, not the cache — the
// local tier is an invisible latency shortcut, maintained under the
// invariant local ⊆ remote.
type cacheTier struct {
	local  *FS
	remote Backend
	c      *counters // shared with the owning Metered; nil in bare tests
}

func (t *cacheTier) String() string { return t.remote.String() + "+cache:" + t.local.Root() }

func (t *cacheTier) Get(ctx context.Context, name string) ([]byte, error) {
	if data, err := t.local.Get(ctx, name); err == nil {
		if t.c != nil {
			t.c.localHits.Add(1)
		}
		return data, nil
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	data, err := t.remote.Get(ctx, name)
	if err != nil {
		return nil, err
	}
	if t.c != nil {
		t.c.remoteGets.Add(1)
		t.c.remoteBytes.Add(int64(len(data)))
	}
	// Fill failures are invisible: the caller has the bytes, and the
	// next read just pays the remote again.
	t.local.Put(ctx, name, data)
	return data, nil
}

func (t *cacheTier) Put(ctx context.Context, name string, data []byte) error {
	if err := t.remote.Put(ctx, name, data); err != nil {
		return err
	}
	t.local.Put(ctx, name, data)
	return nil
}

func (t *cacheTier) PutIfAbsent(ctx context.Context, name string, data []byte) (bool, error) {
	stored, err := t.remote.PutIfAbsent(ctx, name, data)
	if err != nil {
		return false, err
	}
	if stored {
		t.local.Put(ctx, name, data)
	}
	return stored, nil
}

// Stat tries the local tier first: local ⊆ remote, so a local entry
// proves remote existence (sizes match because fills copy bytes
// verbatim). ETag-dependent callers pay the remote HEAD.
func (t *cacheTier) Stat(ctx context.Context, name string) (Object, error) {
	if obj, err := t.local.Stat(ctx, name); err == nil {
		return obj, nil
	} else if !errors.Is(err, fs.ErrNotExist) {
		return Object{}, err
	}
	return t.remote.Stat(ctx, name)
}

func (t *cacheTier) List(ctx context.Context, shard string) ([]Object, error) {
	return t.remote.List(ctx, shard)
}

func (t *cacheTier) Generation(ctx context.Context, shard string) (string, bool) {
	return t.remote.Generation(ctx, shard)
}

func (t *cacheTier) Close() error {
	lerr := t.local.Close()
	rerr := t.remote.Close()
	if rerr != nil {
		return rerr
	}
	return lerr
}
