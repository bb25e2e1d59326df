package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/objstore"
	"repro/internal/smb"
	"repro/internal/workloads"
)

// streamReqs builds n distinct quick requests (ISRB entry count varies)
// over one benchmark.
func streamReqs(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		req := quickReq("crafty")
		req.Config.ME.Enabled = true
		req.Config.Tracker = core.TrackerConfig{Kind: core.TrackerISRB, Entries: i + 1, CounterBits: 3}
		reqs[i] = req
	}
	return reqs
}

// TestStreamEventsAndProvenance: every request yields exactly one event
// under its request's key; fresh simulations are tagged
// SourceSimulated, repeats SourceMemory, and a new runner on the same
// store dir SourceStore.
func TestStreamEventsAndProvenance(t *testing.T) {
	dir := t.TempDir()
	r := New(WithStore(NewStore(dir)))
	reqs := streamReqs(4)

	var events []Event
	results, err := r.Stream(bg, reqs, func(ev Event) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(reqs) {
		t.Fatalf("got %d events for %d requests", len(events), len(reqs))
	}
	seen := make(map[int]bool)
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("event %d carries error %v", ev.Index, ev.Err)
		}
		if seen[ev.Index] {
			t.Fatalf("request %d completed twice", ev.Index)
		}
		seen[ev.Index] = true
		if ev.Source != SourceSimulated {
			t.Fatalf("fresh request %d has provenance %v", ev.Index, ev.Source)
		}
		if ev.Key != Key(reqs[ev.Index]) {
			t.Fatalf("event key %q does not match its request", ev.Key)
		}
		if ev.Res != results[ev.Index] {
			t.Fatalf("event %d result differs from the returned slice", ev.Index)
		}
	}

	// Same runner again: in-memory provenance.
	_, err = r.Stream(bg, reqs, func(ev Event) {
		if ev.Source != SourceMemory {
			t.Errorf("repeat request %d has provenance %v, want memory", ev.Index, ev.Source)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Fresh runner, same store dir: on-disk provenance.
	r2 := New(WithStore(NewStore(dir)))
	_, err = r2.Stream(bg, reqs, func(ev Event) {
		if ev.Source != SourceStore {
			t.Errorf("stored request %d has provenance %v, want store", ev.Index, ev.Source)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestValidationTaxonomy: the same typed contract holds at the single
// entry point for every class of bad request. A configuration that
// passes validation but faults the simulator fails alone, as
// ErrSimFault, and every time: a fault is never cached or stored.
//
// The faulting runs share crafty's memoized program with every other
// crafty run, so the result after them must be bit-identical to one
// computed before them: a fault leaves nothing behind in the program.
func TestValidationTaxonomy(t *testing.T) {
	dir := t.TempDir()
	r := New(WithStore(NewStore(dir)))
	before, err := Simulate(bg, quickReq("crafty"))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		patch func(*Request)
		want  error
	}{
		{"zero measure", func(q *Request) { q.Measure = 0 }, ErrBadConfig},
		{"zero ROB", func(q *Request) { q.Config.ROBSize = 0 }, ErrBadConfig},
		{"unknown tracker", func(q *Request) { q.Config.Tracker.Kind = "no-such-scheme" }, ErrBadConfig},
		{"9-bit ISRB counters", func(q *Request) {
			q.Config.Tracker = core.TrackerConfig{Kind: core.TrackerISRB, Entries: 24, CounterBits: 9}
		}, ErrBadConfig},
		// A size the scheme reads is zero: no default stands in for it.
		{"ISRB without entries", func(q *Request) {
			q.Config.Tracker = core.TrackerConfig{Kind: core.TrackerISRB, CounterBits: 3}
		}, ErrBadConfig},
		{"ISRB without counter bits", func(q *Request) {
			q.Config.Tracker = core.TrackerConfig{Kind: core.TrackerISRB, Entries: 32}
		}, ErrBadConfig},
		{"MIT without entries", func(q *Request) { q.Config.Tracker = core.TrackerConfig{Kind: core.TrackerMIT} }, ErrBadConfig},
		{"RDA without entries", func(q *Request) { q.Config.Tracker = core.TrackerConfig{Kind: core.TrackerRDA} }, ErrBadConfig},
		{"negative checkpoints", func(q *Request) { q.Config.MaxCheckpoints = -1 }, ErrBadConfig},
		// smb.NewDDT would shift by a negative tag width.
		{"negative DDT tag bits", func(q *Request) {
			q.Config.SMB.Enabled = true
			q.Config.SMB.DDT = smb.DDTConfig{Entries: 1024, TagBits: -1}
		}, ErrBadConfig},
		// Each of these divided by zero or indexed an empty table in
		// the simulator (a fault where the configuration is at fault).
		{"zero DRAM ranks", func(q *Request) { q.Config.Mem.DRAM.Ranks = 0 }, ErrBadConfig},
		{"zero DRAM banks per rank", func(q *Request) { q.Config.Mem.DRAM.BanksPerRank = 0 }, ErrBadConfig},
		{"zero DRAM row bytes", func(q *Request) { q.Config.Mem.DRAM.RowBytes = 0 }, ErrBadConfig},
		{"zero L1I KB", func(q *Request) { q.Config.Mem.L1I.SizeKB = 0 }, ErrBadConfig},
		{"zero L1D KB", func(q *Request) { q.Config.Mem.L1D.SizeKB = 0 }, ErrBadConfig},
		{"zero L2 KB", func(q *Request) { q.Config.Mem.L2.SizeKB = 0 }, ErrBadConfig},
		{"L1D of 3 KB with 64 ways", func(q *Request) { q.Config.Mem.L1D.SizeKB, q.Config.Mem.L1D.Ways = 3, 64 }, ErrBadConfig},
		{"zero BTB entries", func(q *Request) { q.Config.Branch.BTBEntries = 0 }, ErrBadConfig},
		{"BTB of 2 entries with 4 ways", func(q *Request) { q.Config.Branch.BTBEntries, q.Config.Branch.BTBWays = 2, 4 }, ErrBadConfig},
		{"zero SSIT entries", func(q *Request) { q.Config.StoreSets.SSITEntries = 0 }, ErrBadConfig},
		{"zero LFST entries", func(q *Request) { q.Config.StoreSets.LFSTEntries = 0 }, ErrBadConfig},
		{"zero RAS entries", func(q *Request) { q.Config.Branch.RASEntries = 0 }, ErrBadConfig},
		{"zero L1D MSHRs", func(q *Request) { q.Config.Mem.L1D.MSHRs = 0 }, ErrBadConfig},
		{"zero L2 MSHRs", func(q *Request) { q.Config.Mem.L2.MSHRs = 0 }, ErrBadConfig},
		// A 37 GB ROB: no recover could catch the out-of-memory.
		{"2^26-entry ROB", func(q *Request) { q.Config.ROBSize = 1 << 26 }, ErrBadConfig},
		{"unknown benchmark", func(q *Request) { q.Bench = "no-such-benchmark" }, ErrUnknownBenchmark},
		// The configuration is checked before the workload name.
		{"unknown benchmark and zero ROB", func(q *Request) {
			q.Bench, q.Config.ROBSize = "no-such-benchmark", 0
		}, ErrBadConfig},
		// Valid, but nothing can execute an ALU op: the core's commit
		// deadlock detector fires.
		{"no ALUs", func(q *Request) { q.Config.NumALU = 0 }, ErrSimFault},
		{"no ALUs, again", func(q *Request) { q.Config.NumALU = 0 }, ErrSimFault},
	} {
		req := quickReq("crafty")
		tc.patch(&req)
		if _, err := r.Run(bg, req); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// Nothing above should have simulated, stored or poisoned anything.
	if c := r.Counters(); c.Simulated != 0 || c.MemHits != 0 {
		t.Fatalf("invalid or faulting requests counted as results: %+v", c)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*", "*.json")); len(files) != 0 {
		t.Fatalf("invalid or faulting requests left %d store entries: %v", len(files), files)
	}
	after, err := r.Run(bg, quickReq("crafty"))
	if err != nil {
		t.Fatalf("valid request after invalid ones: %v", err)
	}
	if a, b := mustJSON(t, after), mustJSON(t, before); a != b {
		t.Fatalf("crafty after the faults differs from crafty before them:\n%s\n%s", a, b)
	}
}

// mustJSON renders v as JSON, the form results are stored and compared
// in.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSharedProgramConcurrentRuns: one gen: program, built once and
// shared, runs under several configurations at once on a multi-worker
// runner, and every result equals the same request run alone. Under
// -race this also checks that concurrent cores only read the program.
func TestSharedProgramConcurrentRuns(t *testing.T) {
	const bench = "gen:chase?mix=0.4&seed=5"
	var reqs []Request
	for _, kind := range []core.TrackerKind{core.TrackerISRB, core.TrackerUnlimited, core.TrackerCounters, core.TrackerRDA} {
		req := Request{Bench: bench, Config: core.DefaultConfig(), Warmup: 500, Measure: 4_000}
		req.Config.ME.Enabled = true
		req.Config.SMB.Enabled = true
		req.Config.Tracker = core.TrackerConfig{Kind: kind, Entries: 16, CounterBits: 3}
		reqs = append(reqs, req)
	}
	want := make([]string, len(reqs))
	for i, req := range reqs {
		res, err := Simulate(bg, req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = mustJSON(t, res)
	}
	got, err := New(WithWorkers(len(reqs))).Stream(bg, reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range got {
		if g := mustJSON(t, res); g != want[i] {
			t.Errorf("%s under %s: concurrent result differs from the sequential one:\n%s\n%s",
				bench, reqs[i].Config.Tracker.Kind, g, want[i])
		}
	}
}

// TestStreamReturnsTypedError: over a whole-catalog batch, a bad
// configuration for one benchmark surfaces as a typed error value, not
// a panic, and the remaining benchmarks still settle.
func TestStreamReturnsTypedError(t *testing.T) {
	r := New()
	members, _ := workloads.Members("all")
	reqs := make([]Request, len(members))
	for i, m := range members {
		cfg := core.DefaultConfig()
		if m.Name == "gcc" {
			cfg.ROBSize = 0 // invalid for exactly one benchmark
		}
		reqs[i] = Request{Bench: m.Name, Config: cfg, Warmup: 200, Measure: 2_000}
	}
	results, err := r.Stream(bg, reqs, nil)
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	ok := 0
	for _, res := range results {
		if res != nil {
			ok++
		}
	}
	if ok != len(results)-1 {
		t.Fatalf("%d of %d benchmarks settled with results, want all but one", ok, len(results))
	}
}

// TestCanceledBeforeStart: an already-canceled context fails every
// request with the full cancellation taxonomy without simulating.
func TestCanceledBeforeStart(t *testing.T) {
	r := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.Run(ctx, quickReq("crafty"))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if _, err := r.Stream(ctx, streamReqs(3), nil); !errors.Is(err, ErrCanceled) {
		t.Fatalf("stream err = %v, want ErrCanceled", err)
	}
	if c := r.Counters(); c.Simulated != 0 {
		t.Fatalf("canceled context still simulated: %+v", c)
	}
}

// TestDeadlineExceededTaxonomy: a deadline surfaces through the same
// sentinel, still matching context.DeadlineExceeded.
func TestDeadlineExceededTaxonomy(t *testing.T) {
	r := New()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	req := quickReq("crafty")
	req.Measure = 5_000_000 // far longer than the deadline allows
	_, err := r.Run(ctx, req)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.DeadlineExceeded", err)
	}
}

// TestCancelMidSimulationDoesNotPoisonStores: cancel while the cycle
// loop is running; the in-memory slot and the on-disk store must stay
// clean, and a fresh-context re-run must simulate and match an
// uninterrupted control run bit for bit.
func TestCancelMidSimulationDoesNotPoisonStores(t *testing.T) {
	dir := t.TempDir()
	r := New(WithStore(NewStore(dir)))
	req := quickReq("crafty")
	req.Measure = 5_000_000 // long enough that the cancel lands mid-loop

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx, req)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	start := time.Now()
	cancel()
	err := <-done
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled (did the run finish before the cancel?)", err)
	}
	// "Stops within one progress interval": the abort must be prompt,
	// not deferred to the end of the measured region.
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("cancellation took %v", waited)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*", "*.json")); len(files) != 0 {
		t.Fatalf("canceled run left %d partial store entries: %v", len(files), files)
	}

	// The request is re-runnable on the same runner with a live context
	// and is bit-identical to an uninterrupted control run.
	short := req
	short.Measure = 8_000
	got, err := r.Run(bg, short)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New().Run(bg, short)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("post-cancel re-run differs from control:\n got %+v\nwant %+v", got, want)
	}
}

// TestCanceledLeaderDoesNotFailLiveJoiner: caller A (canceled mid-run)
// is the singleflight leader; caller B joined with a live context and
// must get a real result — by retrying the simulation itself — not A's
// cancellation. B joins A's request slot when it sends the same
// request, and A's execution slot when its request only describes the
// same machine.
func TestCanceledLeaderDoesNotFailLiveJoiner(t *testing.T) {
	req := quickReq("crafty")
	req.Measure = 500_000
	equivalent := req
	equivalent.Config.Tracker.Entries++ // the unlimited tracker reads no size
	for _, reqB := range []Request{req, equivalent} {
		r := New()
		ctxA, cancelA := context.WithCancel(context.Background())
		errA := make(chan error, 1)
		go func() {
			_, err := r.Run(ctxA, req)
			errA <- err
		}()
		// Let A become the leader, then join with B and cancel A.
		time.Sleep(20 * time.Millisecond)
		resB := make(chan error, 1)
		go func() {
			_, err := r.Run(context.Background(), reqB)
			resB <- err
		}()
		time.Sleep(20 * time.Millisecond)
		cancelA()

		if err := <-errA; !errors.Is(err, ErrCanceled) {
			// A may legitimately have finished first on a fast machine; in
			// that case B trivially succeeds and the test still holds.
			if err != nil {
				t.Fatalf("caller A: %v", err)
			}
		}
		if err := <-resB; err != nil {
			t.Fatalf("caller B inherited the leader's fate: %v", err)
		}
	}
}

// TestJoinedFailureCountsNoHit: a request that joins a call in flight
// whose execution then faults gets the call's error, and counts as no
// memory hit: a runner that served nothing reads zero on every counter.
func TestJoinedFailureCountsNoHit(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	calls := 0
	r := New(WithExecutor(func(_ context.Context, req Request) (*Result, error) {
		calls++
		close(entered)
		<-release
		return nil, fmt.Errorf("sim: %s: %w: injected", req.Bench, ErrSimFault)
	}))
	req := quickReq("crafty")
	errs := make(chan error, 2)
	go func() {
		_, err := r.Run(bg, req)
		errs <- err
	}()
	<-entered // the leader executes
	joiner := &doneProbe{Context: bg, waiting: make(chan struct{})}
	go func() {
		_, err := r.Run(joiner, req)
		errs <- err
	}()
	<-joiner.waiting // the joiner waits on the leader's call
	close(release)
	for range 2 {
		if err := <-errs; !errors.Is(err, ErrSimFault) {
			t.Fatalf("got %v, want ErrSimFault", err)
		}
	}
	if calls != 1 {
		t.Fatalf("executor ran %d times, want 1 (the second request joins)", calls)
	}
	if c := r.Counters(); c != (Counters{}) {
		t.Fatalf("counters %+v after two failed requests, want all zero", c)
	}
}

// doneProbe is a context that closes waiting the first time Done is
// called: a runner request calls it first when it is about to wait.
type doneProbe struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (p *doneProbe) Done() <-chan struct{} {
	p.once.Do(func() { close(p.waiting) })
	return p.Context.Done()
}

// TestRunMemoryHitAllocations pins the cost of a batch of one: a memory
// hit through Run allocates the request slice, the batch with its
// member and result slices, and the request's key.
func TestRunMemoryHitAllocations(t *testing.T) {
	r := New()
	req := quickReq("crafty")
	if _, err := r.Run(bg, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.Run(bg, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Fatalf("a memory hit through Run allocates %v objects, want at most 5", allocs)
	}
}

// TestConcurrentStreamsDedup: two Stream calls racing over the same
// request list must still simulate each distinct request exactly once
// (this is the -race singleflight check).
func TestConcurrentStreamsDedup(t *testing.T) {
	r := New()
	reqs := streamReqs(6)
	var wg sync.WaitGroup
	var mu sync.Mutex
	events := 0
	for caller := 0; caller < 4; caller++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results, err := r.Stream(bg, reqs, func(Event) {
				mu.Lock()
				events++
				mu.Unlock()
			})
			if err != nil {
				t.Errorf("stream: %v", err)
				return
			}
			for i, res := range results {
				if res == nil || res.Bench != reqs[i].Bench {
					t.Errorf("result %d malformed", i)
				}
			}
		}()
	}
	wg.Wait()
	if c := r.Counters(); c.Simulated != uint64(len(reqs)) {
		t.Fatalf("simulated %d, want %d (singleflight broke under concurrency)", c.Simulated, len(reqs))
	}
	if events != 4*len(reqs) {
		t.Fatalf("delivered %d events, want %d", events, 4*len(reqs))
	}
}

// peakGets is a backend whose Get takes about a millisecond and which
// records the most Gets it ever had in flight at once.
type peakGets struct {
	objstore.Backend
	mu        sync.Mutex
	now, peak int
}

func (p *peakGets) Get(ctx context.Context, name string) ([]byte, error) {
	p.mu.Lock()
	p.now++
	p.peak = max(p.peak, p.now)
	p.mu.Unlock()
	time.Sleep(time.Millisecond)
	p.mu.Lock()
	p.now--
	p.mu.Unlock()
	return p.Backend.Get(ctx, name)
}

// TestStreamStoreHitsRunOnWorkers: a batch of store hits settles on at
// most WithWorkers goroutines, not on one goroutine per request, so a
// warm batch reuses stacks that have already grown.
func TestStreamStoreHitsRunOnWorkers(t *testing.T) {
	reqs := streamReqs(16)
	backend := &peakGets{Backend: objstore.NewMem()}
	store := NewStoreWith(backend)
	for _, req := range reqs {
		if err := store.Put(bg, Key(req), &Result{Bench: req.Bench, TrackerName: "stored"}); err != nil {
			t.Fatal(err)
		}
	}
	r := New(WithWorkers(2), WithStore(store), WithExecutor(func(context.Context, Request) (*Result, error) {
		return nil, errors.New("must not execute: every request is stored")
	}))
	if _, err := r.Stream(bg, reqs, nil); err != nil {
		t.Fatal(err)
	}
	if c := r.Counters(); c.DiskHits != uint64(len(reqs)) {
		t.Fatalf("counters %+v, want %d store hits", c, len(reqs))
	}
	if backend.peak > 2 {
		t.Fatalf("%d store reads in flight at once on 2 workers", backend.peak)
	}
}

// TestStreamWaitingMissNeverStallsItsBatch: a request that waits hands
// its place among the workers on, so the batch's later requests still
// start. On 2 workers, request 0's execution finishes only once request
// 2 has started executing, and request 1, of request 0's tracker class
// and no tighter, waits on request 0; if those two held both workers,
// request 2 would never start.
func TestStreamWaitingMissNeverStallsItsBatch(t *testing.T) {
	reqs := sharingReqs("crafty",
		core.TrackerConfig{Kind: core.TrackerISRB, Entries: 4, CounterBits: 2},
		core.TrackerConfig{Kind: core.TrackerISRB, Entries: 64, CounterBits: 3},
		core.TrackerConfig{Kind: core.TrackerMIT, Entries: 16},
	)
	started := make(chan struct{}) // closed when request 2 executes
	exec := func(ctx context.Context, req Request) (*Result, error) {
		switch req.Config.Tracker {
		case reqs[0].Config.Tracker:
			select {
			case <-started:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		case reqs[2].Config.Tracker:
			close(started)
		}
		return Simulate(ctx, req)
	}
	ctx, cancel := context.WithTimeout(bg, time.Minute)
	defer cancel()
	if _, err := New(WithWorkers(2), WithExecutor(exec)).Stream(ctx, reqs, nil); err != nil {
		t.Fatalf("the batch stalled: %v", err)
	}
}

// TestStreamOfOneRunsOnItsCaller: a Stream of one request, and Run,
// execute on the caller's goroutine, whose stack holds this test's own
// frame; a batch of two executes on goroutines the batch starts.
func TestStreamOfOneRunsOnItsCaller(t *testing.T) {
	var mu sync.Mutex
	onCaller := make(map[string]bool)
	exec := func(_ context.Context, req Request) (*Result, error) {
		buf := make([]byte, 64<<10)
		stack := string(buf[:runtime.Stack(buf, false)])
		mu.Lock()
		onCaller[req.Bench] = strings.Contains(stack, "sim.TestStreamOfOneRunsOnItsCaller(")
		mu.Unlock()
		return &Result{Bench: req.Bench}, nil
	}
	r := New(WithExecutor(exec))
	if _, err := r.Stream(bg, []Request{quickReq("crafty")}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(bg, quickReq("gcc")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Stream(bg, []Request{quickReq("gobmk"), quickReq("hmmer")}, nil); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"crafty": true, "gcc": true, "gobmk": false, "hmmer": false}
	if !maps.Equal(onCaller, want) {
		t.Fatalf("executed on the caller's goroutine: %v, want %v", onCaller, want)
	}
}
