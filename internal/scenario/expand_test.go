package scenario

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// gridSpec is a 2×2 grid with a shared ROB axis — the shape where
// deduplication matters: both cells of a row share the row's baseline.
const gridSpec = `{
  "name": "g",
  "title": "G",
  "benchmarks": ["crafty", "gcc"],
  "warmup": 100,
  "measure": 1000,
  "opt": {"smb": true},
  "axes": [
    {"name": "ROB", "shared": true, "values": [
      {"label": "96",  "patch": {"rob": 96}},
      {"label": "192", "patch": {"rob": 192}}
    ]},
    {"name": "ISRB", "values": [
      {"label": "ISRB-8",    "patch": {"tracker": "isrb", "entries": 8, "ctrbits": 3}},
      {"label": "unlimited", "patch": {}}
    ]}
  ],
  "report": {"kind": "grid", "rowheader": "ROB"}
}`

// u64p builds the pointer form Overrides uses to distinguish "unset"
// from an explicit zero.
func u64p(v uint64) *uint64 { return &v }

// describe renders a request's distinguishing fields for the golden
// comparison.
func describe(r sim.Request) string {
	return fmt.Sprintf("%s w=%d m=%d rob=%d smb=%v tracker=%s/%d/%d",
		r.Bench, r.Warmup, r.Measure, r.Config.ROBSize, r.Config.SMB.Enabled,
		r.Config.Tracker.Kind, r.Config.Tracker.Entries, r.Config.Tracker.CounterBits)
}

// TestExpandGolden pins the spec→request-matrix expansion: cell order
// (row-major, last axis fastest), per-cell labels, the deduplicated
// request list in first-use order, and which requests each cell maps to.
func TestExpandGolden(t *testing.T) {
	s, err := ParseBytes([]byte(gridSpec))
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Expand(Overrides{})
	if err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	for _, r := range m.Requests {
		fmt.Fprintf(&got, "req %s\n", describe(r))
	}
	for _, c := range m.Cells {
		fmt.Fprintf(&got, "cell %s base=%v opt=%v\n", strings.Join(c.Labels, "/"), c.Base, c.Opt)
	}

	want := strings.TrimLeft(`
req crafty w=100 m=1000 rob=96 smb=false tracker=unlimited/32/3
req gcc w=100 m=1000 rob=96 smb=false tracker=unlimited/32/3
req crafty w=100 m=1000 rob=96 smb=true tracker=isrb/8/3
req gcc w=100 m=1000 rob=96 smb=true tracker=isrb/8/3
req crafty w=100 m=1000 rob=96 smb=true tracker=unlimited/32/3
req gcc w=100 m=1000 rob=96 smb=true tracker=unlimited/32/3
req crafty w=100 m=1000 rob=192 smb=false tracker=unlimited/32/3
req gcc w=100 m=1000 rob=192 smb=false tracker=unlimited/32/3
req crafty w=100 m=1000 rob=192 smb=true tracker=isrb/8/3
req gcc w=100 m=1000 rob=192 smb=true tracker=isrb/8/3
req crafty w=100 m=1000 rob=192 smb=true tracker=unlimited/32/3
req gcc w=100 m=1000 rob=192 smb=true tracker=unlimited/32/3
cell 96/ISRB-8 base=[0 1] opt=[2 3]
cell 96/unlimited base=[0 1] opt=[4 5]
cell 192/ISRB-8 base=[6 7] opt=[8 9]
cell 192/unlimited base=[6 7] opt=[10 11]
`, "\n")
	if got.String() != want {
		t.Fatalf("expansion drifted:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}

	// The same spec expands identically every time (map iteration must
	// not leak into the order), and the matrix carries each request's
	// key.
	m2 := s.MustExpand(Overrides{})
	if len(m.Keys) != len(m.Requests) {
		t.Fatalf("matrix has %d keys for %d requests", len(m.Keys), len(m.Requests))
	}
	for i := range m.Requests {
		if sim.Key(m.Requests[i]) != sim.Key(m2.Requests[i]) {
			t.Fatalf("expansion not deterministic at request %d", i)
		}
		if m.Keys[i] != sim.Key(m.Requests[i]) {
			t.Fatalf("request %d: matrix key %q, sim.Key %q", i, m.Keys[i], sim.Key(m.Requests[i]))
		}
	}
}

// TestExpandOverrides: run-length and benchmark overrides replace the
// spec's choices without editing it.
func TestExpandOverrides(t *testing.T) {
	s, err := ParseBytes([]byte(gridSpec))
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Expand(Overrides{Warmup: u64p(7), Measure: u64p(77), Benchmarks: []string{"hmmer"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Benches) != 1 || m.Benches[0] != "hmmer" {
		t.Fatalf("bench override ignored: %v", m.Benches)
	}
	for _, r := range m.Requests {
		if r.Bench != "hmmer" || r.Warmup != 7 || r.Measure != 77 {
			t.Fatalf("override not applied: %s", describe(r))
		}
	}
	// A pointer to zero is an explicit request for no warmup, not
	// "keep the spec's value".
	m0, err := s.Expand(Overrides{Warmup: u64p(0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range m0.Requests {
		if r.Warmup != 0 {
			t.Fatalf("explicit zero warmup ignored: %s", describe(r))
		}
	}
	if _, err := s.Expand(Overrides{Benchmarks: []string{"nope"}}); err == nil {
		t.Fatal("unknown benchmark override accepted")
	}
}

// wgSpec sweeps workload shape (one axis value per generator point,
// spelled non-canonically on purpose) against an ISRB config axis, with
// a shared catalog benchmark riding along in every cell.
const wgSpec = `{
  "name": "wg",
  "title": "WG",
  "benchmarks": ["crafty"],
  "warmup": 100,
  "measure": 1000,
  "opt": {"smb": true},
  "workload_axes": [
    {"name": "shape", "values": [
      {"label": "spill8", "benchmarks": ["gen:spill?seed=1&depth=8"]},
      {"label": "chase",  "benchmarks": ["gen:chase?mix=0.50"]}
    ]}
  ],
  "axes": [
    {"name": "ISRB", "values": [
      {"label": "ISRB-8",    "patch": {"tracker": "isrb", "entries": 8, "ctrbits": 3}},
      {"label": "unlimited", "patch": {}}
    ]}
  ],
  "report": {"kind": "grid", "rowheader": "shape"}
}`

// TestExpandWorkloadAxesGolden pins the workload-axis expansion: the
// workload axis is outermost, each cell carries its own canonicalized
// benchmark list (the non-canonical gen: spellings above must collapse
// to canonical form — depth=8 is the spill default and 0.50 prints as
// 0.5), requests dedup across workload combos (the shared crafty
// baseline appears once), and FirstUse maps each request to the cell
// that interned it in nondecreasing order.
func TestExpandWorkloadAxesGolden(t *testing.T) {
	s, err := ParseBytes([]byte(wgSpec))
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Expand(Overrides{})
	if err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	fmt.Fprintf(&got, "benches %v\n", m.Benches)
	for i, r := range m.Requests {
		fmt.Fprintf(&got, "req %s first=%d\n", describe(r), m.FirstUse[i])
	}
	for _, c := range m.Cells {
		fmt.Fprintf(&got, "cell %s benches=%v base=%v opt=%v\n",
			strings.Join(c.Labels, "/"), c.Benches, c.Base, c.Opt)
	}

	want := strings.TrimLeft(`
benches [crafty gen:spill?seed=1 gen:chase?mix=0.5]
req crafty w=100 m=1000 rob=192 smb=false tracker=unlimited/32/3 first=0
req gen:spill?seed=1 w=100 m=1000 rob=192 smb=false tracker=unlimited/32/3 first=0
req crafty w=100 m=1000 rob=192 smb=true tracker=isrb/8/3 first=0
req gen:spill?seed=1 w=100 m=1000 rob=192 smb=true tracker=isrb/8/3 first=0
req crafty w=100 m=1000 rob=192 smb=true tracker=unlimited/32/3 first=1
req gen:spill?seed=1 w=100 m=1000 rob=192 smb=true tracker=unlimited/32/3 first=1
req gen:chase?mix=0.5 w=100 m=1000 rob=192 smb=false tracker=unlimited/32/3 first=2
req gen:chase?mix=0.5 w=100 m=1000 rob=192 smb=true tracker=isrb/8/3 first=2
req gen:chase?mix=0.5 w=100 m=1000 rob=192 smb=true tracker=unlimited/32/3 first=3
cell spill8/ISRB-8 benches=[crafty gen:spill?seed=1] base=[0 1] opt=[2 3]
cell spill8/unlimited benches=[crafty gen:spill?seed=1] base=[0 1] opt=[4 5]
cell chase/ISRB-8 benches=[crafty gen:chase?mix=0.5] base=[0 6] opt=[2 7]
cell chase/unlimited benches=[crafty gen:chase?mix=0.5] base=[0 6] opt=[4 8]
`, "\n")
	if got.String() != want {
		t.Fatalf("workload-axis expansion drifted:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}

	// FirstUse must be nondecreasing — the contiguity property fleet
	// sharding's exactly-once split depends on.
	for i := 1; i < len(m.FirstUse); i++ {
		if m.FirstUse[i] < m.FirstUse[i-1] {
			t.Fatalf("FirstUse not nondecreasing at %d: %v", i, m.FirstUse)
		}
	}

	// A -bench override cannot meaningfully apply to a workload-axis
	// spec; it must be rejected, not silently collapse the axis.
	if _, err := s.Expand(Overrides{Benchmarks: []string{"crafty"}}); err == nil {
		t.Fatal("bench override accepted for a workload-axis spec")
	}
}

// TestExpandRejectsUnsizedTracker: a cell whose composed patches select
// an entry-based tracker but never size it must fail loudly —
// core.NewTracker would otherwise silently coerce it to 32 entries /
// 3 bits, a configuration the spec never named. Under a workload axis
// the configs are checked in the first workload combination, so the
// error carries that combination's labels.
func TestExpandRejectsUnsizedTracker(t *testing.T) {
	for _, tc := range []struct{ spec, cell string }{
		{gridSpec, `scenario "g" cell [96 ISRB-8]: optimized config: `},
		{wgSpec, `scenario "wg" cell [spill8 ISRB-8]: optimized config: `},
	} {
		for _, patch := range []string{
			`{"tracker": "isrb", "ctrbits": 3}`, // no entries
			`{"tracker": "isrb", "entries": 8}`, // no counter bits
			`{"tracker": "rda"}`,                // no entries
		} {
			spec := strings.Replace(tc.spec,
				`{"tracker": "isrb", "entries": 8, "ctrbits": 3}`, patch, 1)
			s, err := ParseBytes([]byte(spec))
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.Expand(Overrides{})
			if err == nil || !strings.HasPrefix(err.Error(), tc.cell) || !strings.Contains(err.Error(), "tracker") {
				t.Fatalf("unsized tracker patch %s: err=%v, want a tracker error starting %q", patch, err, tc.cell)
			}
		}
	}
}

// TestExpandDedupAcrossAxisPaths: two axis paths that reach the same
// configuration produce one request, not two.
func TestExpandDedupAcrossAxisPaths(t *testing.T) {
	spec := strings.Replace(gridSpec,
		`{"label": "ISRB-8",    "patch": {"tracker": "isrb", "entries": 8, "ctrbits": 3}}`,
		`{"label": "also-unl",  "patch": {}}`, 1)
	s, err := ParseBytes([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	m := s.MustExpand(Overrides{})
	// Per ROB row: 2 baseline + 2 opt (both columns identical) = 4
	// unique requests; 2 rows = 8.
	if len(m.Requests) != 8 {
		t.Fatalf("got %d requests, want 8 (identical columns must collapse)", len(m.Requests))
	}
	for _, c := range m.Cells {
		if len(c.Base) != 2 || len(c.Opt) != 2 {
			t.Fatalf("cell %v has wrong index widths", c)
		}
	}
}

// perfbenchShapedSpec has the shape of perfbench's grid: seven workload
// shapes × five schemes × two shared ROB sizes × two tracker sizes, 140
// cells over 20 config-axis combinations.
const perfbenchShapedSpec = `{
  "name": "pb",
  "title": "PB",
  "warmup": 20000,
  "measure": 80000,
  "opt": {"me": true, "smb": true},
  "workload_axes": [
    {"name": "shape", "values": [
      {"label": "spill-d4",       "benchmarks": ["gen:spill?depth=4"]},
      {"label": "spill-d16-far",  "benchmarks": ["gen:spill?depth=16&far=0.5"]},
      {"label": "chase-256k",     "benchmarks": ["gen:chase?nodes=262144"]},
      {"label": "vector-w2",      "benchmarks": ["gen:vector?width=2"]},
      {"label": "vector-w6-t128", "benchmarks": ["gen:vector?trip=128&width=6"]},
      {"label": "branchy-easy",   "benchmarks": ["gen:branchy?hard=0.2"]},
      {"label": "branchy-hard",   "benchmarks": ["gen:branchy?hard=0.9"]}
    ]}
  ],
  "axes": [
    {"name": "scheme", "values": [
      {"label": "isrb",      "patch": {"tracker": "isrb", "entries": 32, "ctrbits": 3}},
      {"label": "mit",       "patch": {"tracker": "mit", "entries": 32, "ctrbits": 4}},
      {"label": "rda",       "patch": {"tracker": "rda", "entries": 32, "ctrbits": 4}},
      {"label": "counters",  "patch": {"tracker": "counters", "ctrbits": 8}},
      {"label": "unlimited", "patch": {"tracker": "unlimited", "ctrbits": 8}}
    ]},
    {"name": "ROB", "shared": true, "values": [
      {"label": "rob128", "patch": {"rob": 128}},
      {"label": "rob256", "patch": {"rob": 256}}
    ]},
    {"name": "entries", "values": [
      {"label": "e16", "patch": {"entries": 16}},
      {"label": "e64", "patch": {"entries": 64}}
    ]}
  ],
  "report": {"kind": "cells"}
}`

// BenchmarkExpand times Expand over the committed fleet-grid and over a
// grid of perfbench's shape.
func BenchmarkExpand(b *testing.B) {
	fleet, err := Builtin("fleet-grid")
	if err != nil {
		b.Fatal(err)
	}
	pb, err := ParseBytes([]byte(perfbenchShapedSpec))
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []*Spec{fleet, pb} {
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.Expand(Overrides{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
