package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

var trackerKinds = []core.TrackerKind{core.TrackerISRB, core.TrackerUnlimited, core.TrackerCounters, core.TrackerMIT, core.TrackerRDA}

// TestCanonicalConfigSimulatesTheSameMachine: a request and its
// canonical form give byte-identical results, over random small
// machines of all five schemes with both sharing mechanisms on, tracker
// sizes small enough that every one the scheme reads changes the
// result. This is what lets the Runner share one simulation among
// equivalent requests.
func TestCanonicalConfigSimulatesTheSameMachine(t *testing.T) {
	benches := []string{"hmmer", "crafty", "gen:spill?depth=16&dist=4"}
	r := rng.New(0xCA70)
	for i := 0; i < 40; i++ {
		req := Request{Bench: benches[i%len(benches)], Config: core.DefaultConfig(), Warmup: 500, Measure: 4000}
		cfg := &req.Config
		cfg.ME.Enabled, cfg.SMB.Enabled = true, true
		cfg.SMB.BypassCommitted = r.Bool(0.5)
		cfg.ROBSize = r.Range(32, 192)
		cfg.PhysRegsPerClass = r.Range(48, 128)
		cfg.Tracker = core.TrackerConfig{Kind: trackerKinds[i%len(trackerKinds)], Entries: r.Range(1, 8), CounterBits: r.Range(1, 2)}
		canon := req
		canon.Config = cfg.Canonical()
		desc := fmt.Sprintf("%s on %+v", req.Bench, cfg.Tracker)
		if canon.Config.Tracker.Kind != cfg.Tracker.Kind {
			t.Fatalf("%s: Canonical changed the scheme to %q", desc, canon.Config.Tracker.Kind)
		}
		a, err := Simulate(bg, req)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		b, err := Simulate(bg, canon)
		if err != nil {
			t.Fatalf("%s, canonical: %v", desc, err)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("%s: the canonical form %+v gives another result\n%s\n%s", desc, canon.Config.Tracker, ja, jb)
		}
	}
}

// TestEquivalentRequestsShareOneSimulation: two requests that differ
// only in tracker sizes their simulation never reads make one simulation,
// and each is stored under its own key, so a fresh runner serves both
// from the store. Requests whose scheme reads the size stay apart.
func TestEquivalentRequestsShareOneSimulation(t *testing.T) {
	a := quickReq("crafty")
	a.Config.ME.Enabled = true
	a.Config.Tracker = core.TrackerConfig{Kind: core.TrackerCounters, Entries: 16, CounterBits: 3}
	b := a
	b.Config.Tracker.Entries, b.Config.Tracker.CounterBits = 64, 5
	if Key(a) == Key(b) {
		t.Fatal("the two requests share a key")
	}

	store := NewStore(t.TempDir())
	r := New(WithStore(store))
	ra := mustRun(t, r, a)
	rb := mustRun(t, r, b)
	if rb != ra {
		t.Fatal("the equivalent request got another result value")
	}
	if c := r.Counters(); c.Simulated != 1 || c.MemHits != 1 || c.DiskHits != 0 {
		t.Fatalf("counters %+v: want 1 simulated, 1 mem hit", c)
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d entries, want one per request", store.Len())
	}
	for _, req := range []Request{a, b} {
		if got, ok := store.Load(bg, Key(req)); !ok || *got != *ra {
			t.Fatalf("%+v: stored %v, %+v", req.Config.Tracker, ok, got)
		}
	}

	fresh := New(WithStore(store))
	mustRun(t, fresh, a)
	mustRun(t, fresh, b)
	if c := fresh.Counters(); c.Simulated != 0 || c.MemHits != 0 || c.DiskHits != 2 {
		t.Fatalf("fresh runner counters %+v: want 2 store hits", c)
	}

	// Concurrent equivalent requests share too; ISRB reads both sizes,
	// so its requests stay apart.
	isrb := a
	isrb.Config.Tracker.Kind = core.TrackerISRB
	isrb2 := isrb
	isrb2.Config.Tracker.Entries = 64
	r = New()
	if _, err := r.RunAll(bg, []Request{a, b, isrb, isrb2}); err != nil {
		t.Fatal(err)
	}
	if c := r.Counters(); c.Simulated != 3 || c.MemHits != 1 {
		t.Fatalf("concurrent counters %+v: want 3 simulated, 1 mem hit", c)
	}
}
