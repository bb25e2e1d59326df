package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// tinySpec is a two-shape, two-scheme grid at short run lengths: enough
// to drive every layer of every workload in well under a second each.
const tinySpec = `{
  "name": "perfbench-tiny",
  "title": "tiny",
  "warmup": 500,
  "measure": 2000,
  "opt": {"me": true, "smb": true},
  "workload_axes": [{"name": "shape", "values": [
    {"label": "spill", "benchmarks": ["gen:spill?depth=4"]},
    {"label": "branchy", "benchmarks": ["gen:branchy?hard=0.2"]}]}],
  "axes": [{"name": "scheme", "values": [
    {"label": "isrb", "patch": {"tracker": "isrb", "entries": 16, "ctrbits": 3}},
    {"label": "counters", "patch": {"tracker": "counters", "ctrbits": 8}}]}],
  "report": {"kind": "cells"}
}`

// testSeed is not the golden seed, so the tiny grid is checked by its
// per-result comparisons alone.
const testSeed = 7

// TestGridSpecShape pins what the committed grid must cover: all four
// gen: families including the 256k-node chase and a vector shape, all
// five schemes, at least two ROB sizes and two tracker sizes, at
// fleet-grid's run lengths, with the seed on every generator name.
func TestGridSpecShape(t *testing.T) {
	s, err := loadSpec(gridSpec, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Expand(scenario.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Warmup != 20000 || m.Measure != 80000 {
		t.Errorf("run lengths %d+%d, want fleet-grid's 20000+80000", m.Warmup, m.Measure)
	}
	families := map[string]bool{}
	trackers := map[core.TrackerKind]bool{}
	robs := map[int]bool{}
	entries := map[int]bool{}
	chase256k := false
	for _, req := range m.Requests {
		if !strings.Contains(req.Bench, "seed=1") {
			t.Errorf("%s carries no seed", req.Bench)
		}
		if _, err := workloads.Resolve(req.Bench); err != nil {
			t.Errorf("%s: %v", req.Bench, err)
		}
		families[family(req.Bench)] = true
		chase256k = chase256k || strings.Contains(req.Bench, "nodes=262144")
		trackers[req.Config.Tracker.Kind] = true
		robs[req.Config.ROBSize] = true
		if req.Config.Tracker.Kind == core.TrackerISRB {
			entries[req.Config.Tracker.Entries] = true
		}
	}
	for _, fam := range []string{"spill", "chase", "vector", "branchy"} {
		if !families[fam] {
			t.Errorf("no %s shape", fam)
		}
	}
	if !chase256k {
		t.Error("no 256k-node chase shape")
	}
	for _, k := range []core.TrackerKind{core.TrackerISRB, core.TrackerMIT, core.TrackerRDA, core.TrackerCounters, core.TrackerUnlimited} {
		if !trackers[k] {
			t.Errorf("no %s scheme", k)
		}
	}
	if len(robs) < 2 || len(entries) < 2 {
		t.Errorf("%d ROB sizes and %d ISRB sizes, want at least two of each", len(robs), len(entries))
	}
}

func TestWithSeed(t *testing.T) {
	for _, c := range []struct {
		name string
		seed uint64
		want string
	}{
		{"gen:spill", 3, "gen:spill?seed=3"},
		{"gen:chase?nodes=1024", 3, "gen:chase?nodes=1024&seed=3"},
		{"gen:vector", 1<<32 + 5, "gen:vector?seed=5"},
		{"hmmer", 3, "hmmer"},
	} {
		if got := withSeed(c.name, c.seed); got != c.want {
			t.Errorf("withSeed(%q, %d) = %q, want %q", c.name, c.seed, got, c.want)
		}
	}
}

// TestSelfTimes checks that overlapping and out-of-range children are
// counted once and clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "drain", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "exec", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "exec", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "lease.put", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "core.run", Start: 15, End: 35},
	}
	self := selfTimes(spans)
	for name, want := range map[string]int64{"drain": 100 - 40 - 10, "exec": 30 - 20 + 20, "lease.put": 30, "core.run": 20} {
		if got := int64(self[name]); got != want {
			t.Errorf("self time of %s = %d, want %d", name, got, want)
		}
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares, per list.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	if len(bj.Workloads) != len(workloadList) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloadList))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
	return endToEnd, perLayer
}

// sameMetrics reports metrics that the result line and BENCHMARK.json
// do not agree on.
func sameMetrics(t *testing.T, mode string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("%s run: %s = %+v, want unit %q", mode, name, m, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s run prints %s, which BENCHMARK.json does not list", mode, name)
		}
	}
}

// TestWorkloads runs every workload untraced and traced on the tiny grid
// and requires zero failed operations and exactly the metrics
// BENCHMARK.json declares.
func TestWorkloads(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			b := &bench{spec: []byte(tinySpec), seed: testSeed, seconds: 1, nproc: 2, dir: t.TempDir(), log: io.Discard}
			line, err := b.untraced(w)
			if err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Fatalf("untraced: correct %v, %d of %d failed", line.Correct, line.Failed, line.Attempted)
			}
			sameMetrics(t, "untraced", line.Metrics, endToEnd)
			for name, m := range line.Metrics {
				if m.Value <= 0 {
					t.Errorf("untraced %s = %v, want > 0", name, m.Value)
				}
			}

			b = &bench{spec: []byte(tinySpec), seed: testSeed, seconds: 1, nproc: 2, dir: t.TempDir(), log: io.Discard}
			line, err = b.traced(w, t.TempDir()+"/spans.jsonl")
			if err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Failed != 0 {
				t.Fatalf("traced: correct %v, %d of %d failed", line.Correct, line.Failed, line.Attempted)
			}
			sameMetrics(t, "traced", line.Metrics, perLayer)
		})
	}
}

// TestTracedExecutorBitIdentical drains the tiny grid cold with and
// without the traced executor and requires equal digests.
func TestTracedExecutorBitIdentical(t *testing.T) {
	b := &bench{spec: []byte(tinySpec), seed: testSeed, seconds: 1, nproc: 2, dir: t.TempDir(), log: io.Discard, traceRun: true}
	outs, err := b.gridCold()
	if err != nil {
		t.Fatal(err)
	}
	untraced, traced := outs[0].digests, outs[1].digests
	if len(untraced) != 1 || len(traced) != 1 || untraced[0].digest != traced[0].digest {
		t.Errorf("untraced digests %+v, traced %+v", untraced, traced)
	}
}

// TestGoldenFor checks which committed digest each program draw and run
// length is held to.
func TestGoldenFor(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if g.Seed != defaultSeed {
		t.Errorf("goldens recorded on seed %d, the default is %d", g.Seed, defaultSeed)
	}
	b := &bench{gold: g}
	for _, c := range []struct {
		seed uint64
		cold bool
		want string
	}{
		{0, true, g.Committed},
		{defaultSeed, true, g.Cold},
		{defaultSeed, false, g.Short},
		{0, false, ""},
		{testSeed, true, ""},
		{testSeed, false, ""},
	} {
		if got := b.goldenFor(c.seed, c.cold); got != c.want {
			t.Errorf("goldenFor(%d, %v) = %q, want %q", c.seed, c.cold, got, c.want)
		}
	}
	if got := (&bench{}).goldenFor(0, true); got != "" {
		t.Errorf("a run without goldens holds draw 0 to %q", got)
	}
}

// TestGoldenShort recomputes the short-run-length golden of the
// committed grid: a few seconds of simulation.
func TestGoldenShort(t *testing.T) {
	if testing.Short() {
		t.Skip("fills the committed grid")
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{spec: gridSpec, gold: g, seed: defaultSeed, nproc: 2, dir: t.TempDir(), log: io.Discard}
	o := &outcome{}
	w, err := b.warmSetup(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	w.store.Close()
	if c := o.digests[0]; o.failed != 0 || c.golden == "" || c.digest != c.golden {
		t.Errorf("fill: %d failed, digest %s, golden %s", o.failed, c.digest, c.golden)
	}
}
