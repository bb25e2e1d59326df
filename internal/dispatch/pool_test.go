package dispatch

import (
	"context"
	"errors"
	"syscall"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestPoolMatchesLocal: results crossing the subprocess JSON frames are
// bit-identical to in-process simulation, and workers are reused.
func TestPoolMatchesLocal(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	for _, bench := range []string{"crafty", "gzip", "wupwise"} {
		req := smallReq(bench, 3000)
		want, err := sim.Simulate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Execute(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(t, got, want) {
			t.Fatalf("%s: pool result differs from in-process result", bench)
		}
	}
	st := p.Stats()
	if st.Spawned > 2 {
		t.Fatalf("3 sequential requests spawned %d workers, want <= 2 (reuse)", st.Spawned)
	}
	if st.Crashes != 0 {
		t.Fatalf("unexpected crashes: %+v", st)
	}
}

// TestPoolTypedErrorsCrossTheWire: an in-band failure comes back as the
// typed taxonomy and does NOT count as a crash or kill the worker.
func TestPoolTypedErrorsCrossTheWire(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	_, err := p.Execute(context.Background(), smallReq("no-such-bench", 3000))
	if !errors.Is(err, sim.ErrUnknownBenchmark) {
		t.Fatalf("got %v, want ErrUnknownBenchmark", err)
	}
	bad := smallReq("crafty", 3000)
	bad.Measure = 0
	_, err = p.Execute(context.Background(), bad)
	if !errors.Is(err, sim.ErrBadConfig) {
		t.Fatalf("got %v, want ErrBadConfig", err)
	}
	// The same worker must still be alive and serving.
	if _, err := p.Execute(context.Background(), smallReq("crafty", 3000)); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Crashes != 0 || st.Spawned != 1 {
		t.Fatalf("in-band errors must not crash or respawn workers: %+v", st)
	}
}

// TestPoolWorkerCrashRetries kills every pool worker mid-request and
// asserts the request is transparently retried on a fresh worker, the
// result is bit-identical to an in-process run, and the on-disk store
// holds exactly one complete entry — no corruption, no partials.
func TestPoolWorkerCrashRetries(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	dir := t.TempDir()
	runner := sim.New(append(Options(p), sim.WithStore(sim.NewStore(dir)))...)

	// Big enough that the kill below is guaranteed to land mid-request
	// (~1s of simulation at the measured cycles/sec).
	req := smallReq("crafty", 1_000_000)

	done := make(chan struct{})
	var res *sim.Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = runner.Run(context.Background(), req)
	}()

	// Wait for a worker to spawn and get into the request, then kill
	// every worker the pool has.
	deadline := time.Now().Add(10 * time.Second)
	for len(p.PIDs()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no worker spawned within 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(250 * time.Millisecond)
	for _, pid := range p.PIDs() {
		syscall.Kill(pid, syscall.SIGKILL)
	}

	<-done
	if runErr != nil {
		t.Fatalf("request was not retried after the worker crash: %v", runErr)
	}
	if st := p.Stats(); st.Crashes == 0 || st.Retries == 0 {
		// The sim finished before the kill landed; the test proved
		// nothing. Fail loudly so the run lengths get re-tuned rather
		// than silently passing.
		t.Fatalf("kill did not land mid-request (stats %+v); raise the request's measure", st)
	}

	want, err := sim.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(t, res, want) {
		t.Fatal("retried result differs from an in-process run")
	}

	// Store integrity: exactly the one complete, loadable entry.
	store := sim.NewStore(dir)
	if got := store.Len(); got != 1 {
		t.Fatalf("store holds %d entries, want 1", got)
	}
	stored, ok := store.Load(context.Background(), sim.Key(req))
	if !ok {
		t.Fatal("stored entry does not load back (corrupt or version-mismatched)")
	}
	if !resultsEqual(t, stored, want) {
		t.Fatal("stored result differs from an in-process run")
	}
}

// TestPoolCancellation: canceling the context mid-request returns a
// typed ErrCanceled wrap (and does not hang waiting for the worker).
func TestPoolCancellation(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := p.Execute(ctx, smallReq("crafty", 50_000_000))
	if !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want an ErrCanceled wrap carrying context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the worker kill did not unblock the wait", elapsed)
	}
	if st := p.Stats(); st.Crashes != 0 {
		t.Fatalf("a local cancellation must not count as a worker crash: %+v", st)
	}
}
