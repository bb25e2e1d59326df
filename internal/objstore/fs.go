package objstore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// FS is the filesystem backend: the sharded content-addressed layout
// sim.Store has always written, extracted behind the Backend interface.
// Entries live at <root>/<name[:2]>/<name>.json; writes are temp file +
// rename inside the shard directory, so a reader never observes a
// partial entry, and PutIfAbsent links the temp file into place, so
// exactly one writer wins. One root can be shared by many concurrent
// processes, on one host or on many that mount it, on any POSIX
// filesystem where rename(2) and link(2) are atomic. NFS is not one: a
// retransmitted link can report EEXIST after it succeeded, and
// PutIfAbsent would then report a lost race for a claim it won.
//
// On unix, Get and List read an entry with open, fstat, read and close
// on a bare descriptor (readFile), not through an *os.File: a warm
// request is one entry read, and an *os.File's set-up and tear-down
// (non-blocking mode, the network poller, a finalizer) cost more than
// the read itself for a file that is read once and closed.
type FS struct {
	root   string
	prefix string // the cleaned root, ending in a separator where Join puts one
}

// NewFS opens (lazily — no I/O happens until the first access) the
// backend rooted at dir.
func NewFS(dir string) *FS {
	// An entry's two path elements are plain names, so filepath.Join
	// cleans the root the same way for every entry: once, here.
	return &FS{root: dir, prefix: strings.TrimSuffix(filepath.Join(dir, "00"), "00")}
}

// Root returns the backend's root directory.
func (f *FS) Root() string { return f.root }

func (f *FS) String() string { return "fs:" + f.root }

// entryPath returns the file path for name, as
// filepath.Join(root, name[:2], name+".json") spells it.
func (f *FS) entryPath(name string) string {
	return f.prefix + name[:2] + string(filepath.Separator) + name + ".json"
}

func (f *FS) Get(ctx context.Context, name string) ([]byte, error) {
	if !ValidName(name) {
		return nil, errBadName(name)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := readFile(f.entryPath(name))
	if err != nil {
		// readFile errors already wrap fs.ErrNotExist on a miss.
		return nil, fmt.Errorf("objstore: reading entry %s: %w", name, err)
	}
	return data, nil
}

func (f *FS) Put(ctx context.Context, name string, data []byte) error {
	if !ValidName(name) {
		return errBadName(name)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	path := f.entryPath(name)
	tmp, err := f.writeTemp(path, data)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

func (f *FS) PutIfAbsent(ctx context.Context, name string, data []byte) (bool, error) {
	if !ValidName(name) {
		return false, errBadName(name)
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	path := f.entryPath(name)
	tmp, err := f.writeTemp(path, data)
	if err != nil {
		return false, err
	}
	// Link instead of rename: link fails with EEXIST when the entry
	// already exists, which is exactly the lost-the-race signal —
	// rename would silently clobber the winner.
	err = os.Link(tmp, path)
	os.Remove(tmp)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// writeTemp writes data to a fresh temp file in the target entry's
// shard directory (creating the directory if needed) and returns its
// path. Put and PutIfAbsent share it.
func (f *FS) writeTemp(path string, data []byte) (string, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put*")
	if err != nil {
		return "", err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return "", werr
		}
		return "", cerr
	}
	return tmp.Name(), nil
}

func (f *FS) List(ctx context.Context, shard string) ([]Object, error) {
	if !ValidShard(shard) {
		return nil, errBadShard(shard)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dir := filepath.Join(f.root, shard)
	des, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil // an absent shard directory is an empty shard
		}
		return nil, fmt.Errorf("objstore: reading shard %s: %w", shard, err)
	}
	var objs []Object
	for _, de := range des { // ReadDir sorts by name
		stem := strings.TrimSuffix(de.Name(), ".json")
		if len(stem) == len(de.Name()) || !ValidName(stem) || stem[:2] != shard {
			continue // temp files and foreign droppings are not entries
		}
		data, err := readFile(filepath.Join(dir, de.Name()))
		if errors.Is(err, fs.ErrNotExist) {
			continue // deleted between ReadDir and the read
		}
		if err != nil {
			return nil, fmt.Errorf("objstore: reading entry %s: %w", stem, err)
		}
		d := sha256.Sum256(data)
		objs = append(objs, Object{Name: stem, SHA256: hex.EncodeToString(d[:])})
	}
	return objs, nil
}

func (f *FS) Close() error { return nil }
