package fleet

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/objstore"
	"repro/internal/scenario"
	"repro/internal/sim"
)

var bg = context.Background()

// fleetSpec is a miniature of the committed fleet grid: workload shape ×
// shared ROB × ISRB size, 8 cells, 12 unique requests after dedup.
const fleetSpec = `{
  "name": "fl",
  "title": "FL",
  "warmup": 50,
  "measure": 400,
  "opt": {"smb": true},
  "workload_axes": [
    {"name": "shape", "values": [
      {"label": "spill",   "benchmarks": ["gen:spill?depth=4"]},
      {"label": "branchy", "benchmarks": ["gen:branchy?hard=0.8"]}
    ]}
  ],
  "axes": [
    {"name": "ROB", "shared": true, "values": [
      {"label": "96",  "patch": {"rob": 96}},
      {"label": "128", "patch": {"rob": 128}}
    ]},
    {"name": "ISRB", "values": [
      {"label": "8",  "patch": {"tracker": "isrb", "entries": 8,  "ctrbits": 3}},
      {"label": "16", "patch": {"tracker": "isrb", "entries": 16, "ctrbits": 3}}
    ]}
  ],
  "report": {"kind": "cells"}
}`

func expandFleet(t *testing.T) *scenario.Matrix {
	t.Helper()
	s, err := scenario.ParseBytes([]byte(fleetSpec))
	if err != nil {
		t.Fatal(err)
	}
	return s.MustExpand(scenario.Overrides{})
}

// fastSleep keeps poll loops hot in tests without wall-clock delays.
func fastSleep(ctx context.Context) error { return ctx.Err() }

// TestLeaseSpec: the lease area derives from the results spec inside the
// same bucket, and mem: is rejected (not shareable across opens).
func TestLeaseSpec(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"fs:/data/store", "fs:/data/store/leases"},
		{"fs:/data/store/", "fs:/data/store/leases"},
		{"s3://bucket/fleet", "s3://bucket/fleet/leases"},
		{"s3://bucket", "s3://bucket/leases"},
	} {
		got, err := LeaseSpec(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("LeaseSpec(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"mem:", "fs:", "http://host", ""} {
		if _, err := LeaseSpec(bad); err == nil {
			t.Errorf("LeaseSpec(%q) accepted", bad)
		}
	}
}

// TestGridID: the grid fingerprint pins the scenario, the shard
// geometry and every request — hosts with any mismatch must not share
// leases.
func TestGridID(t *testing.T) {
	m := expandFleet(t)
	id := GridID(m, 2)
	if id != GridID(m, 2) {
		t.Fatal("GridID not deterministic")
	}
	if id == GridID(m, 4) {
		t.Fatal("shard geometry does not affect the grid ID")
	}
	s2, err := scenario.ParseBytes([]byte(strings.Replace(fleetSpec, `"measure": 400`, `"measure": 401`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if id == GridID(s2.MustExpand(scenario.Overrides{}), 2) {
		t.Fatal("request changes do not affect the grid ID")
	}
}

// TestDrainConfig: misaligned cell ranges and missing host names are
// rejected before any lease is touched.
func TestDrainConfig(t *testing.T) {
	m := expandFleet(t)
	r := sim.New(sim.WithWorkers(2))
	leases := objstore.NewMem()
	if _, err := Drain(bg, m, r, leases, Config{ShardCells: 2, Sleep: fastSleep}); err == nil {
		t.Error("missing host accepted")
	}
	for _, bad := range []Range{{1, 8}, {0, 3}, {-2, 4}, {4, 2}, {0, 100}} {
		_, err := Drain(bg, m, r, leases, Config{Host: "h", ShardCells: 2, Cells: bad, Sleep: fastSleep})
		if err == nil {
			t.Errorf("range %v accepted", bad)
		}
	}
}

// TestDrainSingleHostAndResume: one host drains the whole grid
// (simulating every unique request exactly once), a second drain over
// the same store but fresh leases is pure store hits, and a third over
// the same leases sees every shard already done.
func TestDrainSingleHostAndResume(t *testing.T) {
	m := expandFleet(t)
	dir := t.TempDir()
	leases := objstore.NewMem()

	sum, err := Drain(bg, m, sim.New(sim.WithStore(sim.NewStore(dir)), sim.WithWorkers(2)), leases,
		Config{Host: "a", ShardCells: 2, Sleep: fastSleep})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Shards != 4 || sum.Claimed != 4 || sum.TakenOver != 0 || sum.PeerDone != 0 {
		t.Fatalf("shard accounting off: %+v", sum)
	}
	if sum.Requests != len(m.Requests) || sum.Simulated != len(m.Requests) {
		t.Fatalf("simulated %d of %d owned (%d unique): every request must run exactly once",
			sum.Simulated, sum.Requests, len(m.Requests))
	}

	// Crash-resume shape: leases lost, store kept. Everything is a store
	// hit; nothing re-simulates.
	sum2, err := Drain(bg, m, sim.New(sim.WithStore(sim.NewStore(dir)), sim.WithWorkers(2)), objstore.NewMem(),
		Config{Host: "a", ShardCells: 2, Sleep: fastSleep})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Simulated != 0 || sum2.StoreHits != len(m.Requests) || sum2.Claimed != 4 {
		t.Fatalf("resume over a full store re-simulated: %+v", sum2)
	}

	// Same leases again: every shard reads done, no claims taken.
	sum3, err := Drain(bg, m, sim.New(sim.WithStore(sim.NewStore(dir)), sim.WithWorkers(2)), leases,
		Config{Host: "b", ShardCells: 2, Sleep: fastSleep})
	if err != nil {
		t.Fatal(err)
	}
	if sum3.PeerDone != 4 || sum3.Claimed != 0 || sum3.Simulated != 0 {
		t.Fatalf("done claims not honored: %+v", sum3)
	}
}

// TestDrainTwoHostsByteIdentical is the fleet contract: two hosts
// racing for shards over one shared bucket simulate every request
// exactly once between them, and the resulting store is byte-identical
// — same manifest root, same entry count — to a single-host control run.
func TestDrainTwoHostsByteIdentical(t *testing.T) {
	m := expandFleet(t)

	// Control: one ordinary Stream into its own store.
	controlStore := sim.NewStore(t.TempDir())
	if _, err := sim.New(sim.WithStore(controlStore), sim.WithWorkers(2)).Stream(bg, m.Requests, nil); err != nil {
		t.Fatal(err)
	}
	want, err := controlStore.Manifest(bg)
	if err != nil {
		t.Fatal(err)
	}

	// Fleet: two hosts, one shared results dir, one shared lease area,
	// both draining the full cell range concurrently. A live peer must
	// never be seized, so no poll count is stale: hot polls reach any
	// finite count in milliseconds while a peer's simulation is slow.
	// Each poll yields so the peer gets the CPU. TestDrainStaleTakeover
	// pins takeover.
	dir := t.TempDir()
	leases := objstore.NewMem()
	yield := func(ctx context.Context) error {
		runtime.Gosched()
		return ctx.Err()
	}
	cfg := func(host string) Config {
		return Config{Host: host, ShardCells: 2, StalePolls: math.MaxInt, Sleep: yield}
	}
	var wg sync.WaitGroup
	sums := make([]*Summary, 2)
	errs := make([]error, 2)
	for i, host := range []string{"a", "b"} {
		wg.Add(1)
		go func(i int, host string) {
			defer wg.Done()
			r := sim.New(sim.WithStore(sim.NewStore(dir)), sim.WithWorkers(2))
			sums[i], errs[i] = Drain(bg, m, r, leases, cfg(host))
		}(i, host)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
	}

	simulated := sums[0].Simulated + sums[1].Simulated
	if simulated != len(m.Requests) {
		t.Fatalf("fleet simulated %d requests for %d unique: double-simulation or a hole", simulated, len(m.Requests))
	}
	if done := sums[0].Claimed + sums[1].Claimed + sums[0].PeerDone + sums[1].PeerDone; done < 4 {
		t.Fatalf("shards unaccounted for: %+v %+v", sums[0], sums[1])
	}
	if sums[0].TakenOver+sums[1].TakenOver != 0 {
		t.Fatalf("live peer seized: %+v %+v", sums[0], sums[1])
	}

	got, err := sim.NewStore(dir).Manifest(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Root != want.Root || got.Entries != want.Entries {
		t.Fatalf("fleet store differs from single-host control: %d entries root %s vs %d entries root %s",
			got.Entries, got.Root, want.Entries, want.Root)
	}
}

// TestDrainDisjointRanges: two hosts assigned disjoint cell ranges
// drain their own shards without ever touching the other's, and the
// union covers the grid.
func TestDrainDisjointRanges(t *testing.T) {
	m := expandFleet(t)
	dir := t.TempDir()
	leases := objstore.NewMem()
	a, err := Drain(bg, m, sim.New(sim.WithStore(sim.NewStore(dir)), sim.WithWorkers(2)), leases,
		Config{Host: "a", ShardCells: 2, Cells: Range{0, 4}, Sleep: fastSleep})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Drain(bg, m, sim.New(sim.WithStore(sim.NewStore(dir)), sim.WithWorkers(2)), leases,
		Config{Host: "b", ShardCells: 2, Cells: Range{4, 8}, Sleep: fastSleep})
	if err != nil {
		t.Fatal(err)
	}
	if a.Claimed != 2 || b.Claimed != 2 {
		t.Fatalf("ranges leaked across hosts: %+v %+v", a, b)
	}
	if a.Requests+b.Requests != len(m.Requests) {
		t.Fatalf("ranges own %d+%d requests of %d: FirstUse split broken", a.Requests, b.Requests, len(m.Requests))
	}
	if a.Simulated != a.Requests || b.Simulated != b.Requests {
		t.Fatalf("disjoint ranges shared work: %+v %+v", a, b)
	}
}

// TestDrainStaleTakeover: a claim whose generation token never moves is
// seized with a higher epoch and its shard drained; done claims are
// never seized.
func TestDrainStaleTakeover(t *testing.T) {
	m := expandFleet(t)
	leases := objstore.NewMem()
	grid := GridID(m, 2)

	// A dead host holds shard 0; shard 1 is done under a peer's claim
	// (its requests are deliberately absent from the store — done means
	// done, nobody re-checks).
	plant := func(shard int, cl Claim) {
		cl.Schema, cl.Grid, cl.Shard = ClaimSchema, grid, shard
		data, err := json.Marshal(cl)
		if err != nil {
			t.Fatal(err)
		}
		if err := leases.Put(bg, claimName(grid, shard), data); err != nil {
			t.Fatal(err)
		}
	}
	plant(0, Claim{Holder: "dead", Epoch: 1, Gen: 7})
	plant(1, Claim{Holder: "peer", Epoch: 3, Gen: 2, Done: true})

	sum, err := Drain(bg, m, sim.New(sim.WithStore(sim.NewStore(t.TempDir())), sim.WithWorkers(2)), leases,
		Config{Host: "b", ShardCells: 2, StalePolls: 3, Sleep: fastSleep})
	if err != nil {
		t.Fatal(err)
	}
	if sum.TakenOver != 1 {
		t.Fatalf("stale claim not seized exactly once: %+v", sum)
	}
	if sum.PeerDone != 1 {
		t.Fatalf("done claim not honored: %+v", sum)
	}
	if sum.Claimed != 3 { // shard 0 (seized) + shards 2, 3 (fresh)
		t.Fatalf("drained %d shards, want 3: %+v", sum.Claimed, sum)
	}

	// The seized claim carries the higher epoch and our host, done.
	data, err := leases.Get(bg, claimName(grid, 0))
	if err != nil {
		t.Fatal(err)
	}
	var cl Claim
	if err := json.Unmarshal(data, &cl); err != nil {
		t.Fatal(err)
	}
	if cl.Holder != "b" || cl.Epoch != 2 || !cl.Done {
		t.Fatalf("seized claim wrong: %+v", cl)
	}
}
