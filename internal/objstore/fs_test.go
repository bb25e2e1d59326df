package objstore_test

import (
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
