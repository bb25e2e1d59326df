package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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

func TestParseMinimal(t *testing.T) {
	s, err := ParseBytes([]byte(minimal))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "t" || len(s.Axes) != 1 || s.Axes[0].Values[0].Label != "x" {
		t.Fatalf("parsed spec wrong: %+v", s)
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
