package scenario

import (
	"embed"
	"fmt"
	"os"
	"path"
	"sort"
	"strings"
)

// The committed scenario catalog: every simulated figure of the paper
// and its sweeps plus the beyond-paper grids, as data instead of harness
// code.
//
//go:embed specs/*.scenario
var specFS embed.FS

// BuiltinNames lists the committed scenarios, sorted.
func BuiltinNames() []string {
	entries, err := specFS.ReadDir("specs")
	if err != nil {
		panic(fmt.Sprintf("scenario: embedded specs unreadable: %v", err))
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".scenario"))
	}
	sort.Strings(names)
	return names
}

// Builtin parses the committed scenario with the given name.
func Builtin(name string) (*Spec, error) {
	data, err := specFS.ReadFile(path.Join("specs", name+".scenario"))
	if err != nil {
		return nil, fmt.Errorf("unknown builtin scenario %q (known: %v)", name, BuiltinNames())
	}
	s, err := ParseBytes(data)
	if err != nil {
		return nil, fmt.Errorf("builtin %q: %w", name, err)
	}
	return s, nil
}

// Resolve loads a spec from a name-or-path, the shared rule of every
// command's -scenario flag: an existing file path wins (so its parse
// errors surface verbatim), anything else is a committed-catalog lookup.
func Resolve(nameOrPath string) (*Spec, error) {
	if _, err := os.Stat(nameOrPath); err == nil {
		return LoadFile(nameOrPath)
	}
	return Builtin(nameOrPath)
}
