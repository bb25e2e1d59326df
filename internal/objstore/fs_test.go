package objstore_test

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/objstore"
)

// TestFSListFailsOnUnreadableEntry: an entry that List finds but cannot
// read fails the listing. Skipping it would drop the entry from every
// manifest computed over the store, and the root would be wrong with no
// error. A directory named like an entry is unreadable as a file
// whoever runs the test, root included.
func TestFSListFailsOnUnreadableEntry(t *testing.T) {
	dir := t.TempDir()
	b := objstore.NewFS(dir)
	good := testName("readable")
	if err := b.Put(bg, good, []byte("entry")); err != nil {
		t.Fatal(err)
	}
	if objs, err := b.List(bg, good[:2]); err != nil || len(objs) != 1 {
		t.Fatalf("List before the bad entry = (%v, %v), want one entry", objs, err)
	}

	bad := good[:2] + testName("unreadable")[2:]
	if err := os.Mkdir(filepath.Join(dir, bad[:2], bad+".json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if objs, err := b.List(bg, good[:2]); err == nil {
		t.Fatalf("List skipped an unreadable entry: got %v and no error", objs)
	}
}

// TestFSGetFailsOnUnreadableEntry: Get of a directory named like an
// entry is a read error, not a miss: a fleet host reads a missing claim
// as an unheld shard, and would race for a shard it can never read.
func TestFSGetFailsOnUnreadableEntry(t *testing.T) {
	dir := t.TempDir()
	name := testName("a directory")
	if err := os.MkdirAll(filepath.Join(dir, name[:2], name+".json"), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := objstore.NewFS(dir).Get(bg, name)
	if err == nil || errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Get of a directory = (%q, %v), want a read error that is not fs.ErrNotExist", data, err)
	}
}

// TestFSGetReadsWhatReadFileReads: an entry of any size reads back as
// os.ReadFile reads its file, an empty one as an empty non-nil slice.
func TestFSGetReadsWhatReadFileReads(t *testing.T) {
	dir := t.TempDir()
	b := objstore.NewFS(dir)
	for _, size := range []int{0, 1, 511, 512, 513, 4096, 100_000} {
		name := testName(fmt.Sprint("size ", size))
		payload := bytes.Repeat([]byte{'x'}, size)
		if err := b.Put(bg, name, payload); err != nil {
			t.Fatal(err)
		}
		got, err := b.Get(bg, name)
		if err != nil {
			t.Fatalf("%d bytes: %v", size, err)
		}
		want, err := os.ReadFile(filepath.Join(dir, name[:2], name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || got == nil || !bytes.Equal(got, payload) {
			t.Fatalf("%d bytes: Get returned %d bytes (nil %v), want the %d os.ReadFile returns", size, len(got), got == nil, len(want))
		}
	}
}

// TestFSGetClosesDescriptors: Get closes the descriptor it opens on
// every path — a hit, a miss and a read error — so a long-lived process
// never runs out of them.
func TestFSGetClosesDescriptors(t *testing.T) {
	const fds = "/proc/self/fd"
	if _, err := os.Stat(fds); err != nil {
		t.Skipf("no %s to count descriptors in: %v", fds, err)
	}
	count := func() int {
		des, err := os.ReadDir(fds)
		if err != nil {
			t.Fatal(err)
		}
		return len(des)
	}
	dir := t.TempDir()
	b := objstore.NewFS(dir)
	present, absent, directory := testName("present"), testName("absent"), testName("directory")
	if err := b.Put(bg, present, []byte("entry")); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, directory[:2], directory+".json"), 0o755); err != nil {
		t.Fatal(err)
	}

	before := count()
	for i := 0; i < 1000; i++ {
		if _, err := b.Get(bg, present); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Get(bg, absent); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Get(absent) = %v, want fs.ErrNotExist", err)
		}
		if _, err := b.Get(bg, directory); err == nil {
			t.Fatal("Get of a directory succeeded")
		}
	}
	if after := count(); after != before {
		t.Fatalf("%d descriptors open after 3000 Gets, %d before", after, before)
	}
}
