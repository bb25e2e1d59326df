package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestWithExecutorReplacesExecution: a custom executor sees every
// validated request exactly once (dedup and the stores still sit above
// it) and its results flow through events and stores unchanged.
func TestWithExecutorReplacesExecution(t *testing.T) {
	calls := 0
	exec := func(ctx context.Context, req Request) (*Result, error) {
		calls++
		return Simulate(ctx, req)
	}
	dir := t.TempDir()
	r := New(WithExecutor(exec), WithStore(NewStore(dir)))

	req := quickReq("gzip")
	var ev Event
	res, err := r.Stream(bg, []Request{req, req}, func(e Event) {
		if e.Source == SourceSimulated {
			ev = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("executor ran %d times for two identical requests, want 1 (dedup sits above the backend)", calls)
	}
	if res[0] != res[1] || ev.Res != res[0] {
		t.Fatal("deduplicated results must be the same shared value")
	}

	// The result reached the on-disk store: a fresh runner with the
	// plain executor serves it without calling a backend at all.
	failing := func(ctx context.Context, req Request) (*Result, error) {
		return nil, errors.New("must not execute: the store has this result")
	}
	r2 := New(WithExecutor(failing), WithStore(NewStore(dir)))
	if _, err := r2.Run(bg, req); err != nil {
		t.Fatal(err)
	}
	if c := r2.Counters(); c.DiskHits != 1 {
		t.Fatalf("counters %+v, want one disk hit", c)
	}

	// An invalid request is rejected before the executor sees it.
	bad := quickReq("gzip")
	bad.Measure = 0
	if _, err := r2.Run(bg, bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("got %v, want ErrBadConfig (and no executor call)", err)
	}
}

// TestWithExecutorErrorsAreTyped: executor errors surface through the
// event/error plumbing untouched, and failed calls are not cached.
func TestWithExecutorErrorsAreTyped(t *testing.T) {
	boom := fmt.Errorf("backend exploded: %w", ErrCanceled)
	fails := 0
	r := New(WithExecutor(func(ctx context.Context, req Request) (*Result, error) {
		fails++
		if fails == 1 {
			return nil, boom
		}
		return Simulate(ctx, req)
	}))
	req := quickReq("crafty")
	if _, err := r.Run(bg, req); !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want the executor's typed error", err)
	}
	// The failure did not poison the singleflight slot.
	if _, err := r.Run(bg, req); err != nil {
		t.Fatalf("retry after a failed executor call: %v", err)
	}
	if fails != 2 {
		t.Fatalf("executor ran %d times, want 2", fails)
	}
}
