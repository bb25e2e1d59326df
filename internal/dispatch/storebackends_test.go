package dispatch

// Cross-backend storage acceptance: the same grid stored through fs:
// and mem: backends must be indistinguishable — byte-identical
// envelopes, equal manifest roots — and a fleet sharing one fs:
// directory must behave as one store: the second host serves the first
// host's results without simulating, and both hosts see one manifest
// root.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/objstore"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// openStore opens a fresh backend from a -store spec, closed when the
// test ends.
func openStore(t *testing.T, spec string) objstore.Backend {
	t.Helper()
	b, err := objstore.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// storeDump reads every raw envelope out of a store's backend, keyed by
// entry name.
func storeDump(t *testing.T, b objstore.Backend) map[string][]byte {
	t.Helper()
	ctx := context.Background()
	out := map[string][]byte{}
	for i := 0; i < sim.ShardCount; i++ {
		objs, err := b.List(ctx, fmt.Sprintf("%02x", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range objs {
			data, err := b.Get(ctx, obj.Name)
			if err != nil {
				t.Fatal(err)
			}
			out[obj.Name] = data
		}
	}
	return out
}

// TestStoresByteIdenticalAcrossBackends runs the 112-cell acceptance
// grid twice, once with each backend behind the store, and checks the
// two stores end up indistinguishable: same report bytes, same entry
// count, byte-identical envelopes entry-for-entry, equal manifest
// roots. This is the property that makes an fs directory and a mem
// worker interchangeable homes for one grid's results.
func TestStoresByteIdenticalAcrossBackends(t *testing.T) {
	spec := backendGrid(t)
	ctx := context.Background()
	backends := map[string]objstore.Backend{
		"fs":  openStore(t, "fs:"+t.TempDir()),
		"mem": openStore(t, "mem:"),
	}

	type outcome struct {
		report []byte
		root   string
		dump   map[string][]byte
	}
	results := map[string]outcome{}
	for _, name := range []string{"fs", "mem"} {
		s := sim.NewStoreWith(backends[name])
		rep, err := spec.MustExpand(scenario.Overrides{}).Run(ctx, sim.New(sim.WithStore(s)), nil)
		if err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Manifest(ctx)
		if err != nil {
			t.Fatalf("%s manifest: %v", name, err)
		}
		results[name] = outcome{report: data, root: m.Root, dump: storeDump(t, backends[name])}
	}

	base, got := results["fs"], results["mem"]
	if len(base.dump) == 0 {
		t.Fatal("fs store is empty after the grid run")
	}
	if !bytes.Equal(got.report, base.report) {
		t.Errorf("mem report differs from the fs report")
	}
	if got.root != base.root {
		t.Errorf("mem manifest root %s != fs root %s", got.root, base.root)
	}
	if len(got.dump) != len(base.dump) {
		t.Errorf("mem stored %d entries, fs stored %d", len(got.dump), len(base.dump))
	}
	for entry, data := range base.dump {
		if !bytes.Equal(got.dump[entry], data) {
			t.Errorf("mem entry %s is not byte-identical to the fs envelope", entry)
		}
	}
}

// TestSharedStoreServesFleet is the fleet acceptance: two hosts with
// independent runners and independent backends share one fs:
// directory. Host A simulates the grid; host B then runs the same grid
// and must serve every cell from the shared store — zero simulations —
// and both hosts must compute the same manifest root over the
// directory.
func TestSharedStoreServesFleet(t *testing.T) {
	spec := backendGrid(t)
	ctx := context.Background()
	shared := "fs:" + t.TempDir()

	storeA := sim.NewStoreWith(openStore(t, shared))
	runnerA := sim.New(sim.WithStore(storeA))
	repA, err := spec.MustExpand(scenario.Overrides{}).Run(ctx, runnerA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := runnerA.Counters().Simulated; n == 0 {
		t.Fatal("host A simulated nothing; the grid cannot have populated the store")
	}

	// Host B opens its own backend on the shared directory.
	storeB := sim.NewStoreWith(openStore(t, shared))
	runnerB := sim.New(sim.WithStore(storeB))
	repB, err := spec.MustExpand(scenario.Overrides{}).Run(ctx, runnerB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := runnerB.Counters().Simulated; n != 0 {
		t.Fatalf("host B simulated %d cells, want 0: every result was already in the shared store", n)
	}
	a, _ := json.Marshal(repA)
	b, _ := json.Marshal(repB)
	if !bytes.Equal(a, b) {
		t.Fatal("host B's served report differs from host A's simulated report")
	}
	ts := storeB.TierStats()
	if ts.Gets == 0 {
		t.Fatalf("host B tier stats %+v: expected store gets serving the grid", ts)
	}

	// One directory is one store: both hosts describe it by one root.
	ma, err := storeA.Manifest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := storeB.Manifest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Root != mb.Root {
		t.Fatalf("hosts sharing one directory compute different roots: A %s, B %s", ma.Root, mb.Root)
	}
}
