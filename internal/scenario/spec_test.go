package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// minimal returns a valid single-axis spec as a mutable JSON template.
const minimal = `{
  "name": "t",
  "title": "T",
  "benchmarks": ["crafty"],
  "warmup": 100,
  "measure": 1000,
  "opt": {"smb": true},
  "axes": [{"name": "a", "values": [{"label": "x", "patch": {"entries": 8}}]}],
  "report": {"kind": "grid", "rowheader": "a"}
}`

// TestParseMinimal: a spec parses, with JSON whitespace around it, a
// trailing newline included.
func TestParseMinimal(t *testing.T) {
	for _, data := range []string{minimal, minimal + "\n", "\n\t " + minimal + " \r\n"} {
		s, err := ParseBytes([]byte(data))
		if err != nil {
			t.Fatalf("%q: %v", data, err)
		}
		if s.Name != "t" || len(s.Axes) != 1 || s.Axes[0].Values[0].Label != "x" {
			t.Fatalf("parsed spec wrong: %+v", s)
		}
	}
}

// TestParseRejects: every malformed or invalid spec must fail with an
// error naming the problem, never sweep a silently-wrong grid.
func TestParseRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{"unknown top-level field",
			strings.Replace(minimal, `"title"`, `"titel"`, 1), "titel"},
		{"junk after the spec", minimal + "junk", "data after the spec"},
		{"two specs", minimal + "\n" + minimal, "data after the spec"},
		{"unknown patch knob",
			strings.Replace(minimal, `"entries": 8`, `"entriess": 8`, 1), "entriess"},
		{"unknown tracker kind",
			strings.Replace(minimal, `{"entries": 8}`, `{"tracker": "lru"}`, 1), "tracker"},
		{"empty tracker kind",
			strings.Replace(minimal, `{"entries": 8}`, `{"tracker": ""}`, 1), "tracker"},
		{"unknown predictor",
			strings.Replace(minimal, `{"entries": 8}`, `{"pred": "oracle"}`, 1), "predictor"},
		{"negative size",
			strings.Replace(minimal, `{"entries": 8}`, `{"rob": -1}`, 1), "negative"},
		{"unknown workload",
			strings.Replace(minimal, `["crafty"]`, `["craftee"]`, 1), "craftee"},
		{"unknown group",
			strings.Replace(minimal, `["crafty"]`, `["specfp2000"]`, 1), "not a workload and not a group"},
		{"no benchmarks",
			strings.Replace(minimal, `["crafty"]`, `[]`, 1), "no benchmarks"},
		{"no axes (empty grid)",
			strings.Replace(minimal, `[{"name": "a", "values": [{"label": "x", "patch": {"entries": 8}}]}]`, `[]`, 1),
			"empty"},
		{"axis with no values (empty grid)",
			strings.Replace(minimal, `[{"label": "x", "patch": {"entries": 8}}]`, `[]`, 1), "empty"},
		{"value without label",
			strings.Replace(minimal, `"label": "x"`, `"label": ""`, 1), "no label"},
		{"missing name",
			strings.Replace(minimal, `"name": "t"`, `"name": ""`, 1), "name"},
		{"zero measure",
			strings.Replace(minimal, `"measure": 1000`, `"measure": 0`, 1), "measure"},
		{"bad report kind",
			strings.Replace(minimal, `"kind": "grid"`, `"kind": "heatmap"`, 1), "report kind"},
		{"series report over two axes",
			strings.Replace(strings.Replace(minimal, `"kind": "grid"`, `"kind": "series"`, 1),
				`"axes": [`, `"axes": [{"name": "b", "values": [{"label": "y", "patch": {}}]},`, 1),
			"series report"},
		{"stats report over two cells",
			strings.Replace(strings.Replace(minimal, `"kind": "grid", "rowheader": "a"`, `"kind": "stats", "metrics": ["IPC"]`, 1),
				`{"label": "x", "patch": {"entries": 8}}`, `{"label": "x", "patch": {"entries": 8}}, {"label": "y", "patch": {}}`, 1),
			"exactly one cell"},
		{"stats report without metrics",
			strings.Replace(minimal, `"kind": "grid", "rowheader": "a"`, `"kind": "stats"`, 1), "no metrics"},
		{"unknown metric",
			strings.Replace(minimal, `"kind": "grid", "rowheader": "a"`, `"kind": "stats", "metrics": ["IPC", "MemTrap"]`, 1),
			`unknown metric "MemTrap"`},
		{"metrics on a series report",
			strings.Replace(minimal, `"kind": "grid", "rowheader": "a"`, `"kind": "series", "metrics": ["IPC"]`, 1),
			"metrics apply only to a stats report"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseBytes([]byte(tc.json))
			if err == nil {
				t.Fatalf("spec accepted:\n%s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestResolveBenchmarksGroups: group names expand in catalog order and
// duplicates collapse.
func TestResolveBenchmarksGroups(t *testing.T) {
	s, err := ParseBytes([]byte(strings.Replace(minimal,
		`["crafty"]`, `["crafty", "branch-hostile", "vpr"]`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	names, err := s.ResolveBenchmarks()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"crafty", "vpr", "mcf", "parser", "twolf", "gobmk", "sjeng"}
	if len(names) != len(want) {
		t.Fatalf("resolved %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("resolved %v, want %v", names, want)
		}
	}
}

// TestBuiltinSpecsAllValid: every committed spec parses, validates, and
// is filed under its own name.
func TestBuiltinSpecsAllValid(t *testing.T) {
	names := BuiltinNames()
	if len(names) < 13 {
		t.Fatalf("only %d builtin scenarios: %v", len(names), names)
	}
	for _, n := range names {
		s, err := Builtin(n)
		if err != nil {
			t.Errorf("builtin %q: %v", n, err)
			continue
		}
		if s.Name != n {
			t.Errorf("builtin file %q holds scenario named %q", n, s.Name)
		}
		if s.Description == "" {
			t.Errorf("builtin %q has no description", n)
		}
		if _, err := s.Expand(Overrides{}); err != nil {
			t.Errorf("builtin %q does not expand: %v", n, err)
		}
	}
	if _, err := Builtin("no-such-scenario"); err == nil {
		t.Fatal("unknown builtin accepted")
	}
}

// TestResolve: an existing path resolves to that file's spec, and its
// parse error surfaces as it is; any other name is a catalog lookup, and
// an unknown one lists the catalog.
func TestResolve(t *testing.T) {
	dir := t.TempDir()
	good, bad := filepath.Join(dir, "good.scenario"), filepath.Join(dir, "bad.scenario")
	if err := os.WriteFile(good, []byte(minimal), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(strings.Replace(minimal, `"title"`, `"titel"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Resolve(good); err != nil || s.Name != "t" {
		t.Fatalf("Resolve(%s) = %+v, %v; want the file's spec \"t\"", good, s, err)
	}
	if _, err := Resolve(bad); err == nil || !strings.Contains(err.Error(), "titel") || !strings.Contains(err.Error(), bad) {
		t.Fatalf("Resolve(%s) = %v; want its parse error naming the file", bad, err)
	}

	want, err := Builtin("sweep-rob")
	if err != nil {
		t.Fatal(err)
	}
	if s, err := Resolve("sweep-rob"); err != nil || !reflect.DeepEqual(s, want) {
		t.Fatalf("Resolve(sweep-rob) = %+v, %v; want the builtin", s, err)
	}

	_, err = Resolve("no-such-scenario")
	if err == nil || !strings.Contains(err.Error(), `"no-such-scenario"`) || !strings.Contains(err.Error(), "sweep-isrb") {
		t.Fatalf("Resolve(no-such-scenario) = %v; want an error that names it and lists the catalog", err)
	}
}

// TestFleetGridShape pins the committed fleet-scale grid: 17 workload
// shapes × 5 schemes × 5 ROB × 5 tracker sizes × 5 counter widths =
// 10625 cells, deduplicating to 10710 unique requests (85 shared
// baselines, one per shape × ROB, plus one optimized point per cell).
func TestFleetGridShape(t *testing.T) {
	s, err := Builtin("fleet-grid")
	if err != nil {
		t.Fatal(err)
	}
	m := s.MustExpand(Overrides{})
	if len(m.Cells) != 10625 {
		t.Fatalf("fleet-grid has %d cells, want 10625", len(m.Cells))
	}
	if len(m.Requests) != 10710 {
		t.Fatalf("fleet-grid dedups to %d requests, want 10710", len(m.Requests))
	}
	if len(m.Benches) != 17 {
		t.Fatalf("fleet-grid covers %d shapes, want 17", len(m.Benches))
	}
	if m.Spec.Report.Kind != ReportCells {
		t.Fatalf("fleet-grid must use the cells report (grids cannot lay out 4+ axes)")
	}
}

// maxFuzzCells bounds the grids FuzzSpec expands; the count is taken
// before Expand runs, which builds every cell.
const maxFuzzCells = 4096

// FuzzSpec: ParseBytes returns a spec only for exactly one JSON value;
// Expand of a spec it returns never panics, names the scenario in every
// error, and otherwise yields a matrix that holds what sweeps and fleet
// drains rely on — every request keyed by sim.Key (which must equal the
// key json.Marshal's encoding of the config gives), keys unique,
// FirstUse nondecreasing (fleet's exactly-once settlement), every index
// in range, and every config passing Check.
func FuzzSpec(f *testing.F) {
	entries, err := specFS.ReadDir("specs")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		data, err := specFS.ReadFile(path.Join("specs", e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range []string{
		minimal + "junk",
		minimal + minimal,
		minimal + "\n",
		strings.Replace(minimal, `{"entries": 8}`, `{"tagegeom": []}`, 1),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseBytes(data)
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("%q parsed, but is not exactly one JSON value", data)
		}
		if cells(s) > maxFuzzCells {
			return
		}
		m, err := s.Expand(Overrides{})
		if err != nil {
			if !strings.Contains(err.Error(), fmt.Sprintf("scenario %q", s.Name)) {
				t.Fatalf("Expand error %q does not name scenario %q", err, s.Name)
			}
			return
		}
		checkMatrix(t, m)
	})
}

// cells counts a spec's grid, stopping past maxFuzzCells.
func cells(s *Spec) int {
	n := 1
	for _, a := range s.WorkloadAxes {
		if n *= len(a.Values); n > maxFuzzCells {
			return n
		}
	}
	for _, a := range s.Axes {
		if n *= len(a.Values); n > maxFuzzCells {
			return n
		}
	}
	return n
}

// checkMatrix requires the invariants FuzzSpec states of an expanded
// matrix.
func checkMatrix(t *testing.T, m *Matrix) {
	t.Helper()
	n := len(m.Requests)
	if len(m.Keys) != n || len(m.FirstUse) != n {
		t.Fatalf("%d requests, %d keys, %d first uses", n, len(m.Keys), len(m.FirstUse))
	}
	seen := make(map[string]bool, n)
	for i, req := range m.Requests {
		if key := sim.Key(req); m.Keys[i] != key || key != marshalKey(t, req) {
			t.Fatalf("request %d: key %s, sim.Key %s, json.Marshal's %s", i, m.Keys[i], key, marshalKey(t, req))
		}
		if seen[m.Keys[i]] {
			t.Fatalf("request %d: key %s repeats", i, m.Keys[i])
		}
		seen[m.Keys[i]] = true
		if u := m.FirstUse[i]; u < 0 || u >= len(m.Cells) || i > 0 && u < m.FirstUse[i-1] {
			t.Fatalf("FirstUse %v is out of range or decreases at %d", m.FirstUse, i)
		}
		if err := req.Config.Check(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for ci, c := range m.Cells {
		if len(c.Base) != len(c.Benches) || len(c.Opt) != len(c.Benches) {
			t.Fatalf("cell %d: %d benchmarks, %d baselines, %d optimized", ci, len(c.Benches), len(c.Base), len(c.Opt))
		}
		for _, idxs := range [][]int{c.Base, c.Opt} {
			for _, i := range idxs {
				if i < 0 || i >= n {
					t.Fatalf("cell %d: request index %d out of [0, %d)", ci, i, n)
				}
			}
		}
	}
}

// marshalKey is sim.Key over encoding/json's encoding of the config: the
// reference for the bytes sim.Key hashes.
func marshalKey(t *testing.T, req sim.Request) string {
	cfg, err := json.Marshal(req.Config)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(cfg)
	return fmt.Sprintf("%s-%d-%d-%s", req.Bench, req.Warmup, req.Measure, hex.EncodeToString(h[:8]))
}
