package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// randomGenName draws a gen: program, spelled canonically: a family,
// its shape parameters and a seed, sized so that building it stays
// cheap.
func randomGenName(t *testing.T, r *rng.RNG) string {
	var shape string
	switch r.Intn(4) {
	case 0:
		shape = fmt.Sprintf("spill?depth=%d&dist=%d&reuse=%g", r.Range(1, 32), r.Range(1, 32), float64(r.Intn(11))/10)
	case 1:
		shape = fmt.Sprintf("chase?nodes=%d&mix=%g", r.Range(16, 4096), float64(r.Intn(11))/10)
	case 2:
		shape = fmt.Sprintf("vector?width=%d&trip=%d", r.Range(1, 6), r.Range(4, 64))
	default:
		shape = fmt.Sprintf("branchy?hard=%g&calls=%g", float64(r.Intn(11))/10, float64(r.Intn(11))/10)
	}
	spec, err := workloads.Resolve(fmt.Sprintf("gen:%s&seed=%d", shape, r.Intn(1<<16)))
	if err != nil {
		t.Fatal(err)
	}
	return spec.Name
}

// limitPair draws two trackers of one class, the first no looser than
// the second in either limit: an ISRB or an RDA against a looser ISRB,
// RDA or the unlimited tracker, or two MITs. Entries and counters are
// small enough that shares meet both limits often.
func limitPair(r *rng.RNG) (tight, loose core.TrackerConfig) {
	e := r.Range(1, 6)
	if r.Bool(0.2) {
		return core.TrackerConfig{Kind: core.TrackerMIT, Entries: e},
			core.TrackerConfig{Kind: core.TrackerMIT, Entries: r.Range(e+1, 12)}
	}
	bits := 4
	tight = core.TrackerConfig{Kind: core.TrackerRDA, Entries: e}
	if r.Bool(0.7) {
		bits = r.Range(1, 3)
		tight = core.TrackerConfig{Kind: core.TrackerISRB, Entries: e, CounterBits: bits}
	}
	switch le := r.Range(e, 12); r.Intn(4) {
	case 0:
		loose = core.TrackerConfig{Kind: core.TrackerUnlimited}
	case 1:
		loose = core.TrackerConfig{Kind: core.TrackerRDA, Entries: le}
	default:
		loose = core.TrackerConfig{Kind: core.TrackerISRB, Entries: le, CounterBits: r.Range(bits, 5)}
	}
	return tight, loose
}

// TestServedRequestsEqualTheirOwnSimulation is the property execution
// sharing rests on: a request the runner serves by a run of its
// tracker class gets exactly the result its own simulation gives. Each
// draw streams a tighter and a looser request of one class on a random
// small machine and gen: program; whenever the looser one is served,
// it must equal a direct simulation of it, byte for byte. Dropping
// either condition of core.TrackerLimits.Serves makes it serve runs
// that met a limit the looser request raises, and fails this.
func TestServedRequestsEqualTheirOwnSimulation(t *testing.T) {
	draws, wantServed := 400, 200
	if testing.Short() {
		draws, wantServed = 100, 50
	}
	r := rng.New(0x5E4E)
	served, faulted := 0, 0
	for i := 0; i < draws; i++ {
		base := Request{Bench: randomGenName(t, r), Config: core.DefaultConfig(), Warmup: 300, Measure: 3000}
		cfg := &base.Config
		cfg.ROBSize = r.Range(16, 96)
		cfg.IQSize = r.Range(8, 48)
		cfg.PhysRegsPerClass = r.Range(isa.NumArchRegs+32, 128)
		cfg.MaxCheckpoints = r.Range(1, 8)
		cfg.ME.Enabled = r.Bool(0.8)
		cfg.SMB.Enabled = !cfg.ME.Enabled || r.Bool(0.7)
		cfg.SMB.BypassCommitted = cfg.SMB.Enabled && r.Bool(0.5)
		tight, loose := base, base
		tight.Config.Tracker, loose.Config.Tracker = limitPair(r)
		desc := fmt.Sprintf("draw %d: %s, %+v then %+v", i, base.Bench, tight.Config.Tracker, loose.Config.Tracker)

		runner := New(WithWorkers(2))
		res, err := runner.Stream(bg, []Request{tight, loose}, nil)
		if errors.Is(err, ErrSimFault) {
			faulted++
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		switch c := runner.Counters(); {
		case c.Simulated == 2:
		case c.Simulated == 1 && c.MemHits == 1:
			served++
			own, err := Simulate(bg, loose)
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			if got, want := mustJSON(t, res[1]), mustJSON(t, own); got != want {
				t.Fatalf("%s: the served result differs from the request's own simulation\nserved %s\nown    %s", desc, got, want)
			}
		default:
			t.Fatalf("%s: counters %+v, want 2 simulated or 1 simulated and 1 memory hit", desc, c)
		}
	}
	if served < wantServed {
		t.Fatalf("%d of %d draws served (%d faulted), want at least %d", served, draws, faulted, wantServed)
	}
	t.Logf("%d of %d draws served, %d faulted", served, draws, faulted)
}

// TestEquivalentRequestsShareOneSimulation: requests that differ only
// in tracker sizes their simulation never reads make one simulation,
// each is stored under its own key, and a fresh runner serves both from
// the store. A looser request of a class is served by a tighter run
// only when that run met no limit the looser one raises.
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

	// In one batch: the counters pair shares one run; the 2-entry ISRB
	// meets its entry limit on crafty, so the 64-entry one runs too, and
	// the unlimited tracker, looser than both, is served by the 64-entry
	// run, which met no limit. Each served result carries its own
	// tracker's name.
	isrb2 := a
	isrb2.Config.Tracker = core.TrackerConfig{Kind: core.TrackerISRB, Entries: 2, CounterBits: 3}
	isrb64 := isrb2
	isrb64.Config.Tracker.Entries = 64
	unl := isrb2
	unl.Config.Tracker = core.TrackerConfig{Kind: core.TrackerUnlimited}
	r = New()
	res, err := r.Stream(bg, []Request{a, b, isrb2, isrb64, unl}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[2].Tracker.ShareFailsFull == 0 || res[3].Tracker.ShareFailsFull != 0 || res[3].Tracker.ShareFailsSat != 0 {
		t.Fatalf("ISRB-2 stats %+v, ISRB-64 stats %+v: want the first full and the second never", res[2].Tracker, res[3].Tracker)
	}
	if c := r.Counters(); c.Simulated != 3 || c.MemHits != 2 {
		t.Fatalf("batch counters %+v: want 3 simulated, 2 mem hits", c)
	}
	if res[4].TrackerName != "unlimited" || res[3].TrackerName != "ISRB-64" {
		t.Fatalf("served results carry tracker names %q and %q", res[3].TrackerName, res[4].TrackerName)
	}
	own := *res[4]
	own.TrackerName = res[3].TrackerName
	if own != *res[3] {
		t.Fatal("the unlimited request's result is not the ISRB-64 run's")
	}
}

// sharingReqs returns one short ME+SMB request on bench per tracker.
func sharingReqs(bench string, trackers ...core.TrackerConfig) []Request {
	reqs := make([]Request, len(trackers))
	for i, tc := range trackers {
		reqs[i] = Request{Bench: bench, Config: core.DefaultConfig(), Warmup: 500, Measure: 4000}
		reqs[i].Config.ME.Enabled, reqs[i].Config.SMB.Enabled = true, true
		reqs[i].Config.Tracker = tc
	}
	return reqs
}

// TestStreamSharingIsDeterministic: which requests of one batch execute
// does not depend on goroutine timing. One batch mixing the tracker
// classes, with looser requests before and after tighter ones and a
// repeated request, streams 20 times on fresh runners with more workers
// than CPUs, and gives the same counters and results every time.
func TestStreamSharingIsDeterministic(t *testing.T) {
	var reqs []Request
	for _, bench := range []string{"hmmer", "gen:spill?depth=16&reuse=0.9"} {
		reqs = append(reqs, sharingReqs(bench,
			core.TrackerConfig{Kind: core.TrackerUnlimited},
			core.TrackerConfig{Kind: core.TrackerISRB, Entries: 4, CounterBits: 2},
			core.TrackerConfig{Kind: core.TrackerISRB, Entries: 64, CounterBits: 3},
			core.TrackerConfig{Kind: core.TrackerRDA, Entries: 8},
			core.TrackerConfig{Kind: core.TrackerISRB, Entries: 8, CounterBits: 1},
			core.TrackerConfig{Kind: core.TrackerMIT, Entries: 16},
			core.TrackerConfig{Kind: core.TrackerMIT, Entries: 2},
			core.TrackerConfig{Kind: core.TrackerCounters, CounterBits: 2},
			core.TrackerConfig{Kind: core.TrackerCounters, CounterBits: 8},
			core.TrackerConfig{Kind: core.TrackerISRB, Entries: 2, CounterBits: 1},
			core.TrackerConfig{Kind: core.TrackerRDA, Entries: 8},
			core.TrackerConfig{Kind: core.TrackerRDA, Entries: 64},
			core.TrackerConfig{Kind: core.TrackerUnlimited, Entries: 64},
			core.TrackerConfig{Kind: core.TrackerMIT, Entries: 64},
		)...)
	}
	var want Counters
	var wantRes []string
	for i := 0; i < 20; i++ {
		r := New(WithWorkers(4))
		res, err := r.Stream(bg, reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := r.Counters()
		if i == 0 {
			want = got
			for _, x := range res {
				wantRes = append(wantRes, mustJSON(t, x))
			}
			if want.Simulated == 0 || want.Simulated+2 >= uint64(len(reqs)) {
				t.Fatalf("counters %+v: the batch shares too little to show anything", want)
			}
			continue
		}
		if got != want {
			t.Fatalf("stream %d: counters %+v, the first stream's %+v", i, got, want)
		}
		for j, x := range res {
			if mustJSON(t, x) != wantRes[j] {
				t.Fatalf("stream %d: request %d's result changed", i, j)
			}
		}
	}
	t.Logf("%d requests: %+v", len(reqs), want)
}

// TestStreamSharingAcrossConcurrentStreams: concurrent Streams whose
// requests share tracker classes, two in one order and two in the
// reverse, never wait on each other for good, and every request gets
// the result a runner of its own gives it. Requests with equal limits
// in opposite orders are the case two batches could deadlock on.
func TestStreamSharingAcrossConcurrentStreams(t *testing.T) {
	reqs := sharingReqs("gen:spill?depth=16&reuse=0.9",
		core.TrackerConfig{Kind: core.TrackerISRB, Entries: 4, CounterBits: 2},
		core.TrackerConfig{Kind: core.TrackerUnlimited, Entries: 16},
		core.TrackerConfig{Kind: core.TrackerRDA, Entries: 64},
		core.TrackerConfig{Kind: core.TrackerUnlimited, Entries: 64},
		core.TrackerConfig{Kind: core.TrackerISRB, Entries: 64, CounterBits: 3},
		core.TrackerConfig{Kind: core.TrackerCounters, CounterBits: 2},
		core.TrackerConfig{Kind: core.TrackerCounters, CounterBits: 8},
	)
	alone, err := New().Stream(bg, reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(alone))
	for i, res := range alone {
		want[i] = mustJSON(t, res)
	}

	ctx, cancel := context.WithTimeout(bg, 2*time.Minute)
	defer cancel()
	r := New(WithWorkers(4))
	var wg sync.WaitGroup
	for caller := 0; caller < 4; caller++ {
		order, at := slices.Clone(reqs), func(i int) int { return i }
		if caller%2 == 1 {
			slices.Reverse(order)
			at = func(i int) int { return len(reqs) - 1 - i }
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := r.Stream(ctx, order, nil)
			if err != nil {
				t.Errorf("caller %d: %v", caller, err)
				return
			}
			for i, res := range got {
				if b, err := json.Marshal(res); err != nil || string(b) != want[at(i)] {
					t.Errorf("caller %d: request %d's result differs from its own runner's", caller, at(i))
				}
			}
		}()
	}
	wg.Wait()
}
