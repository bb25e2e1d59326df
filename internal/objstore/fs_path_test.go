package objstore

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestEntryPathIsJoin: the entry path NewFS precomputes its root for is
// the one filepath.Join spells, whatever the root's form.
func TestEntryPathIsJoin(t *testing.T) {
	name := strings.Repeat("a7", 32)
	for _, root := range []string{"", ".", "/", "store", "store/", "./store//x/..", "a/../b", "../up", "/tmp/x00", "00"} {
		if got, want := NewFS(root).entryPath(name), filepath.Join(root, name[:2], name+".json"); got != want {
			t.Errorf("root %q: entry path %q, want %q", root, got, want)
		}
	}
}
