package fleet

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// same directory; mem: (not shareable across opens) and every spec
// objstore cannot open are rejected.
func TestLeaseSpec(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"fs:/data/store", "fs:/data/store/leases"},
		{"fs:/data/store/", "fs:/data/store/leases"},
	} {
		got, err := LeaseSpec(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("LeaseSpec(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"mem:", "fs:", "http://host", "s3://bucket/prefix", ""} {
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

// ownRuns is how many of fleetSpec's 12 requests a drain simulates:
// each shard holds one shape and ROB size, with its baseline and its
// 8- and 16-entry ISRBs, and the 8-entry run, which never fills, serves
// the 16-entry request.
const ownRuns = 8

// TestDrainSingleHostAndResume: one host drains the whole grid
// (settling every unique request once, ownRuns of them by simulating),
// a second drain over the same store but fresh leases is pure store
// hits, and a third over the same leases sees every shard already done.
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
	if sum.Requests != len(m.Requests) || sum.Simulated != ownRuns || sum.Simulated+sum.MemHits != sum.Requests {
		t.Fatalf("simulated %d and served %d of %d owned (%d unique), want %d simulated and the rest served",
			sum.Simulated, sum.MemHits, sum.Requests, len(m.Requests), ownRuns)
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

// countingLeases counts the lease operations a drain issues.
type countingLeases struct {
	objstore.Backend
	ops atomic.Int64
}

func (c *countingLeases) Get(ctx context.Context, name string) ([]byte, error) {
	c.ops.Add(1)
	return c.Backend.Get(ctx, name)
}

func (c *countingLeases) Put(ctx context.Context, name string, data []byte) error {
	c.ops.Add(1)
	return c.Backend.Put(ctx, name, data)
}

func (c *countingLeases) PutIfAbsent(ctx context.Context, name string, data []byte) (bool, error) {
	c.ops.Add(1)
	return c.Backend.PutIfAbsent(ctx, name, data)
}

// TestDrainLeaseOpsPerSimulation: an uncontested shard costs four lease
// operations (the first read, the claim, the done mark's read and
// write) plus a read and a write per simulation; hits bump nothing, so
// an all-hit re-drain costs four per shard whatever its request count.
func TestDrainLeaseOpsPerSimulation(t *testing.T) {
	m := expandFleet(t)
	dir := t.TempDir()
	for _, pass := range []string{"cold", "warm"} {
		leases := &countingLeases{Backend: objstore.NewMem()}
		sum, err := Drain(bg, m, sim.New(sim.WithStore(sim.NewStore(dir)), sim.WithWorkers(2)), leases,
			Config{Host: "a", ShardCells: 2, Sleep: fastSleep})
		if err != nil {
			t.Fatal(err)
		}
		want := 4*sum.Shards + 2*sum.Simulated
		if pass == "warm" && (sum.Simulated != 0 || sum.StoreHits != len(m.Requests)) {
			t.Fatalf("warm re-drain did not hit the store for every request: %+v", sum)
		}
		if got := int(leases.ops.Load()); got != want {
			t.Errorf("%s drain: %d lease operations for %d shards and %d simulations, want %d",
				pass, got, sum.Shards, sum.Simulated, want)
		}
	}
}

// TestDrainTwoHostsByteIdentical is the fleet contract: two hosts
// racing for shards over one shared directory settle every request
// exactly once between them, and the resulting store is byte-identical
// — same manifest root, same entry count — to a single-host control
// run. A shard holds every request of its tracker classes here, so the
// two hosts simulate what the control does.
func TestDrainTwoHostsByteIdentical(t *testing.T) {
	m := expandFleet(t)

	// Control: one ordinary Stream into its own store.
	controlStore := sim.NewStore(t.TempDir())
	control := sim.New(sim.WithStore(controlStore), sim.WithWorkers(2))
	if _, err := control.Stream(bg, m.Requests, nil); err != nil {
		t.Fatal(err)
	}
	want, err := controlStore.Manifest(bg)
	if err != nil {
		t.Fatal(err)
	}

	// Fleet: two hosts, one shared results dir, one shared lease dir
	// that each host opens on its own, as separate processes would, so
	// their claims race through link(2). Both drain the full cell range
	// concurrently. A live peer must never be seized, so no poll count
	// is stale: hot polls reach any finite count in milliseconds while a
	// peer's simulation is slow. Each poll yields so the peer gets the
	// CPU. TestDrainStaleTakeover pins takeover.
	dir, leaseDir := t.TempDir(), t.TempDir()
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
			sums[i], errs[i] = Drain(bg, m, r, objstore.NewFS(leaseDir), cfg(host))
		}(i, host)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
	}

	simulated := sums[0].Simulated + sums[1].Simulated
	settled := simulated + sums[0].MemHits + sums[1].MemHits + sums[0].StoreHits + sums[1].StoreHits
	if settled != len(m.Requests) || uint64(simulated) != control.Counters().Simulated {
		t.Fatalf("fleet settled %d requests for %d unique, simulating %d where the control simulated %d: double work or a hole",
			settled, len(m.Requests), simulated, control.Counters().Simulated)
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
// union covers the grid. Each host settles its own requests: half of
// ownRuns simulated, the rest served by its own runs, none from the
// other host's results.
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
	for _, h := range []*Summary{a, b} {
		if h.Simulated != ownRuns/2 || h.Simulated+h.MemHits != h.Requests || h.StoreHits != 0 {
			t.Fatalf("disjoint ranges shared work: %+v %+v", a, b)
		}
	}
}

// TestDrainStaleTakeover: a claim whose generation token never moves is
// seized with a higher epoch and its shard drained; done claims are
// never seized. A claim object that does not decode, or is of a foreign
// schema, is a holder that never progresses: it is seized the same way,
// at epoch 1, before the context's deadline.
func TestDrainStaleTakeover(t *testing.T) {
	m := expandFleet(t)
	grid := GridID(m, 2)
	claim := func(shard int, cl Claim) []byte {
		cl.Schema, cl.Grid, cl.Shard = ClaimSchema, grid, shard
		data, err := json.Marshal(cl)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	foreign, err := json.Marshal(Claim{Schema: "fl0", Grid: grid, Holder: "old", Epoch: 4, Gen: 9})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		shard0 []byte // planted at shard 0's claim name
		epoch  int    // the seizing claim's epoch
	}{
		{"dead host", claim(0, Claim{Holder: "dead", Epoch: 1, Gen: 7}), 2},
		{"garbage", []byte("{not json"), 1},
		{"foreign schema", foreign, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(bg, 10*time.Second)
			defer cancel()
			// Shard 1 is done under a peer's claim (its requests are
			// deliberately absent from the store — done means done,
			// nobody re-checks).
			leases := objstore.NewMem()
			for shard, data := range [][]byte{tc.shard0, claim(1, Claim{Holder: "peer", Epoch: 3, Gen: 2, Done: true})} {
				if err := leases.Put(bg, claimName(grid, shard), data); err != nil {
					t.Fatal(err)
				}
			}

			sum, err := Drain(ctx, m, sim.New(sim.WithStore(sim.NewStore(t.TempDir())), sim.WithWorkers(2)), leases,
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
			if cl.Holder != "b" || cl.Epoch != tc.epoch || !cl.Done {
				t.Fatalf("seized claim wrong: %+v", cl)
			}
		})
	}
}
