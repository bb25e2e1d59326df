package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestRunSmallScenario: end-to-end over a tiny grid — cells aggregate
// into per-benchmark speedup series and both table shapes render.
func TestRunSmallScenario(t *testing.T) {
	s, err := ParseBytes([]byte(gridSpec))
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Expand(Overrides{Warmup: u64p(500), Measure: u64p(4000)})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(context.Background(), sim.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Series.GMean <= 0 {
			t.Fatalf("cell %s has degenerate gmean %v", c.Name, c.Series.GMean)
		}
		for _, b := range rep.Benches {
			if c.Series.Per[b] <= 0 {
				t.Fatalf("cell %s missing benchmark %s", c.Name, b)
			}
		}
	}
	tbl := rep.Table().String()
	for _, want := range []string{"== G ==", "ROB", "ISRB-8", "unlimited", "96", "192"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("grid table missing %q:\n%s", want, tbl)
		}
	}

	// The report is a stable, self-describing JSON value.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != reportSchema || back.Scenario != "g" || len(back.Cells) != 4 {
		t.Fatalf("report did not round-trip: %+v", back)
	}
	if back.Cells[0].Series.GMean != rep.Cells[0].Series.GMean {
		t.Fatal("gmean lost in the JSON round-trip")
	}
}

// TestSeriesReportShape: a series scenario renders one row per
// benchmark plus the gmean row, one column per cell.
func TestSeriesReportShape(t *testing.T) {
	spec := `{
	  "name": "s", "title": "S",
	  "benchmarks": ["crafty", "gcc"],
	  "warmup": 500, "measure": 4000,
	  "opt": {"me": true},
	  "axes": [{"name": "ISRB", "values": [
	    {"label": "ME-8",   "patch": {"tracker": "isrb", "entries": 8, "ctrbits": 3}},
	    {"label": "ME-unl", "patch": {"tracker": "unlimited"}}]}],
	  "report": {"kind": "series"}
	}`
	s, err := ParseBytes([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.MustExpand(Overrides{}).Run(context.Background(), sim.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Table().String()
	for _, want := range []string{"benchmark", "ME-8", "ME-unl", "crafty", "gcc", "gmean"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("series table missing %q:\n%s", want, tbl)
		}
	}
	if got := rep.Series(); len(got) != 2 || got[0].Name != "ME-8" {
		t.Fatalf("Series() = %+v", got)
	}
}

// bigGrid builds a ≥100-cell spec (14 entries × 8 counter widths = 112
// cells) over one benchmark with very short runs.
func bigGrid() *Spec {
	var values1, values2 []string
	for e := 1; e <= 14; e++ {
		values1 = append(values1,
			fmt.Sprintf(`{"label": "%d", "patch": {"entries": %d}}`, e, e))
	}
	for b := 1; b <= 8; b++ {
		values2 = append(values2,
			fmt.Sprintf(`{"label": "%db", "patch": {"ctrbits": %d}}`, b, b))
	}
	spec := fmt.Sprintf(`{
	  "name": "big", "title": "Big",
	  "benchmarks": ["crafty"],
	  "warmup": 200, "measure": 1500,
	  "opt": {"me": true, "smb": true, "tracker": "isrb"},
	  "axes": [
	    {"name": "entries", "values": [%s]},
	    {"name": "bits", "values": [%s]}
	  ],
	  "report": {"kind": "grid", "rowheader": "entries"}
	}`, strings.Join(values1, ","), strings.Join(values2, ","))
	s, err := ParseBytes([]byte(spec))
	if err != nil {
		panic(err)
	}
	return s
}

// TestHundredCellGridThroughStore is the scale acceptance check: one run
// over a 112-cell grid populates the sharded store, and a second,
// fresh-process-equivalent invocation (new Runner on the same dir) is
// served entirely from the store without simulating anything.
func TestHundredCellGridThroughStore(t *testing.T) {
	dir := t.TempDir()
	s := bigGrid()
	m := s.MustExpand(Overrides{})
	if len(m.Cells) < 100 {
		t.Fatalf("grid has %d cells, want >= 100", len(m.Cells))
	}
	// 112 distinct optimized configs + 1 shared baseline.
	if want := 113; len(m.Requests) != want {
		t.Fatalf("got %d deduplicated requests, want %d", len(m.Requests), want)
	}

	r1 := sim.New(sim.WithStore(sim.NewStore(dir)))
	rep1, err := m.Run(context.Background(), r1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := r1.Counters(); c.Simulated != uint64(len(m.Requests)) {
		t.Fatalf("first run simulated %d, want %d", c.Simulated, len(m.Requests))
	}
	if got := sim.NewStore(dir).Len(); got != len(m.Requests) {
		t.Fatalf("store holds %d entries after the run, want %d", got, len(m.Requests))
	}

	r2 := sim.New(sim.WithStore(sim.NewStore(dir)))
	rep2, err := s.MustExpand(Overrides{}).Run(context.Background(), r2, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := r2.Counters()
	if c.Simulated != 0 || c.DiskHits != uint64(len(m.Requests)) {
		t.Fatalf("second run not served from the store: %+v", c)
	}
	for i := range rep1.Cells {
		if rep1.Cells[i].Series.GMean != rep2.Cells[i].Series.GMean {
			t.Fatalf("cell %s changed across the store round-trip", rep1.Cells[i].Name)
		}
	}
}

// TestStatsReport: a stats report's values equal the ones computed from
// the cell's own baseline and optimized runs, and a metric undefined on
// every benchmark prints "-", in the average row too.
func TestStatsReport(t *testing.T) {
	spec := `{
	  "name": "st", "title": "ST",
	  "benchmarks": ["wupwise"],
	  "warmup": 500, "measure": 4000,
	  "opt": {"me": true},
	  "axes": [{"name": "ISRB", "values": [
	    {"label": "ME-8", "patch": {"tracker": "isrb", "entries": 8, "ctrbits": 3}}]}],
	  "report": {"kind": "stats", "metrics": ["IPC", "base.IPC", "speedup", "MemTraps/100M", "ME.Eliminated", "base.ShareDistance"]}
	}`
	s, err := ParseBytes([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	m := s.MustExpand(Overrides{})
	rep, err := m.Run(context.Background(), sim.New(), nil)
	if err != nil {
		t.Fatal(err)
	}

	r := sim.New()
	base, err := r.Run(context.Background(), m.Requests[m.Cells[0].Base[0]])
	if err != nil {
		t.Fatal(err)
	}
	opt, err := r.Run(context.Background(), m.Requests[m.Cells[0].Opt[0]])
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"IPC":           opt.S.IPC(),
		"base.IPC":      base.S.IPC(),
		"speedup":       opt.IPC / base.IPC,
		"MemTraps/100M": float64(opt.S.MemTraps) * 1e8 / float64(opt.S.Committed),
		"ME.Eliminated": float64(opt.ME.Eliminated),
	}
	got := rep.Cells[0].Stats
	for name, w := range want {
		v, ok := got[name]["wupwise"]
		if !ok || math.Abs(v-w) > 1e-9*math.Abs(w) {
			t.Errorf("%s = %v (defined %v), want %v", name, v, ok, w)
		}
	}
	if v, ok := got["base.ShareDistance"]["wupwise"]; ok {
		t.Errorf("base.ShareDistance = %v on a baseline that shares nothing, want undefined", v)
	}

	tbl := rep.Table().String()
	for _, line := range strings.Split(tbl, "\n") {
		fields := strings.Fields(line)
		if len(fields) > 0 && (fields[0] == "wupwise" || fields[0] == "average") && fields[len(fields)-1] != "-" {
			t.Errorf("row %q: base.ShareDistance should print -", line)
		}
	}
	if !strings.Contains(tbl, "average") || !strings.Contains(tbl, "ME.Eliminated") {
		t.Fatalf("stats table lacks the average row or a metric header:\n%s", tbl)
	}
}
