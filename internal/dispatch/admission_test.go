package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// blockedService builds a service whose executor parks every simulation
// until release is closed, over a tight admission gate — the setup for
// driving the queue into overflow deterministically.
func blockedService(t *testing.T, maxInflight, maxQueue int) (*httptest.Server, *Service, chan struct{}, chan struct{}) {
	t.Helper()
	entered := make(chan struct{}, 64)
	release := make(chan struct{})
	exec := func(ctx context.Context, req sim.Request) (*sim.Result, error) {
		entered <- struct{}{}
		select {
		case <-release:
			return &sim.Result{}, nil
		case <-ctx.Done():
			return nil, fmt.Errorf("test exec: %w: %w", sim.ErrCanceled, ctxCause(ctx))
		}
	}
	runner := sim.New(sim.WithExecutor(exec), sim.WithWorkers(8))
	svc := NewService(runner, nil, WithAdmission(maxInflight, maxQueue))
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts, svc, entered, release
}

// waitFor polls cond for up to ~2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for range 2000 {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdmissionQueueOverflow429: with max-inflight 1 and max-queue 1, a
// third concurrent request is refused with 429 and a Retry-After hint,
// a fourth with the typed ErrOverloaded on the Go client — and /metrics
// reports the in-flight and queue-depth gauges while the jam is live.
func TestAdmissionQueueOverflow429(t *testing.T) {
	ts, svc, entered, release := blockedService(t, 1, 1)
	ctx := context.Background()

	// Requests need distinct keys or the runner's dedup would merge them
	// before they ever occupy separate admission slots.
	h1 := NewHTTP(ts.URL)
	defer h1.Close()
	h1.SetClientID("client-a")
	done1 := make(chan error, 1)
	go func() {
		_, err := h1.Execute(ctx, smallReq("crafty", 3000))
		done1 <- err
	}()
	<-entered // request 1 holds the only execution slot

	h2 := NewHTTP(ts.URL)
	defer h2.Close()
	h2.SetClientID("client-b")
	done2 := make(chan error, 1)
	go func() {
		_, err := h2.Execute(ctx, smallReq("crafty", 3500))
		done2 <- err
	}()
	waitFor(t, "request 2 to queue", func() bool { return queued(svc.adm) == 1 })

	// The jam is observable: /metrics reports the live gauges.
	hm := NewHTTP(ts.URL)
	defer hm.Close()
	snap, err := hm.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.InFlight != 1 || snap.QueueDepth != 1 {
		t.Fatalf("mid-jam gauges: in-flight %d, queue %d; want 1, 1", snap.InFlight, snap.QueueDepth)
	}

	// Slot taken, queue full: the third request bounces with a 429 and
	// a Retry-After hint of at least a second.
	body, err := json.Marshal(smallReq("crafty", 4000))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); resp.StatusCode != http.StatusTooManyRequests || err != nil || ra < 1 {
		t.Fatalf("overflow: status %d, Retry-After %q; want 429 and ≥1s", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// The Go client gets the typed ErrOverloaded for the next one.
	h3 := NewHTTP(ts.URL)
	defer h3.Close()
	h3.SetClientID("client-c")
	if _, err := h3.Execute(ctx, smallReq("crafty", 4500)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow: got %v, want ErrOverloaded", err)
	}

	// Draining the jam lets both held requests finish cleanly.
	close(release)
	if err := <-done1; err != nil {
		t.Fatalf("request 1: %v", err)
	}
	<-entered // request 2 reaches the executor after the slot transfers
	if err := <-done2; err != nil {
		t.Fatalf("request 2: %v", err)
	}

	// The rejection is on the books.
	snap, err = hm.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Rejected != 2 || snap.Completed != 2 || snap.InFlight != 0 || snap.QueueDepth != 0 {
		t.Fatalf("post-drain snapshot: rejected %d completed %d in-flight %d queue %d; want 2, 2, 0, 0",
			snap.Rejected, snap.Completed, snap.InFlight, snap.QueueDepth)
	}
}

// TestAdmissionFairDequeue pins the per-client round-robin: with client
// A's 100 requests and client B's 100 requests all queued behind one
// slot, grants alternate A,B,A,B… — B waits behind one A request, not
// behind A's whole sweep.
func TestAdmissionFairDequeue(t *testing.T) {
	a := newAdmission(1, 1000)
	ctx := context.Background()
	if err := a.acquire(ctx, "holder"); err != nil {
		t.Fatal(err)
	}

	const perClient = 100
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	enqueue := func(client string) {
		wg.Add(1)
		before := queued(a)
		go func() {
			defer wg.Done()
			if err := a.acquire(ctx, client); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, client)
			mu.Unlock()
			a.release()
		}()
		// Serialize enqueue order so the FIFO contents are deterministic.
		waitFor(t, "waiter to enqueue", func() bool { return queued(a) == before+1 })
	}
	for range perClient {
		enqueue("A")
	}
	for range perClient {
		enqueue("B")
	}

	a.release() // hand the slot to the queue; grants cascade from here
	wg.Wait()

	if len(order) != 2*perClient {
		t.Fatalf("granted %d, want %d", len(order), 2*perClient)
	}
	for i, c := range order {
		want := "A"
		if i%2 == 1 {
			want = "B"
		}
		if c != want {
			t.Fatalf("grant %d went to %s, want %s (alternation broken: %v…)", i, c, want, order[:i+1])
		}
	}
}

// TestAdmissionCancelWhileQueued: a waiter that gives up leaves no
// phantom queue entry and no leaked slot.
func TestAdmissionCancelWhileQueued(t *testing.T) {
	a := newAdmission(1, 10)
	if err := a.acquire(context.Background(), "holder"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- a.acquire(ctx, "quitter") }()
	waitFor(t, "waiter to enqueue", func() bool { return queued(a) == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("canceled waiter: got %v, want ErrCanceled", err)
	}
	if d := queued(a); d != 0 {
		t.Fatalf("queue depth %d after cancellation, want 0", d)
	}

	// The slot still exists: release it and a fresh acquire is instant.
	a.release()
	if err := a.acquire(context.Background(), "next"); err != nil {
		t.Fatalf("acquire after drain: %v", err)
	}
	a.release()
}

// queued is a's queue depth.
func queued(a *admission) int {
	_, q := a.depth()
	return q
}
