package dispatch

import (
	"errors"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/sim"
)

// TestSentinelsSurviveWireRoundTrip pins the error-taxonomy contract
// across the wire: a typed sim error classified on one side
// (classify) and reconstructed on the other (wireError) must still
// satisfy errors.Is for its sentinel, no matter how many layers of
// fmt.Errorf wrapping it picked up before crossing. This is what lets
// commands and retry logic treat local and remote backends uniformly.
func TestSentinelsSurviveWireRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		err      error
		sentinel error
	}{
		{
			name:     "unknown benchmark, bare",
			err:      sim.ErrUnknownBenchmark,
			sentinel: sim.ErrUnknownBenchmark,
		},
		{
			name:     "unknown benchmark, wrapped",
			err:      fmt.Errorf("sim: %w %q", sim.ErrUnknownBenchmark, "nope"),
			sentinel: sim.ErrUnknownBenchmark,
		},
		{
			name:     "bad config, wrapped twice",
			err:      fmt.Errorf("outer: %w", fmt.Errorf("sim: x: %w: rob too small", sim.ErrBadConfig)),
			sentinel: sim.ErrBadConfig,
		},
		{
			name:     "simulator fault, wrapped",
			err:      fmt.Errorf("sim: crafty: %w: core: no commit for 200001 cycles", sim.ErrSimFault),
			sentinel: sim.ErrSimFault,
		},
		{
			name:     "admission rejection, wrapped",
			err:      fmt.Errorf("%w: admission queue full (3 queued, 2 in flight)", ErrOverloaded),
			sentinel: ErrOverloaded,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := wireError(classify(tc.err).kind, tc.err.Error())
			if !errors.Is(rt, tc.sentinel) {
				t.Errorf("errors.Is lost the sentinel across the wire: %v", rt)
			}
			if rt.Error() == "" {
				t.Error("round-trip dropped the message")
			}
		})
	}
}

// TestClassifyTakesOneRow: the wire kind and the HTTP status of an
// error come from one row of errorClasses, the first whose sentinel it
// wraps, so an error wrapping a fault and a cancellation is answered
// as a cancellation on both counts; an error wrapping none is internal.
func TestClassifyTakesOneRow(t *testing.T) {
	for _, tc := range []struct {
		err    error
		kind   string
		status int
	}{
		{fmt.Errorf("%w: %w", sim.ErrSimFault, sim.ErrCanceled), kindCanceled, http.StatusServiceUnavailable},
		{errors.New("plain"), kindInternal, http.StatusInternalServerError},
	} {
		if c := classify(tc.err); c.kind != tc.kind || c.status != tc.status {
			t.Errorf("%v: classified %q, %d; want %q, %d", tc.err, c.kind, c.status, tc.kind, tc.status)
		}
	}
}

// TestCanceledDeliberatelyDegrades documents the one asymmetry:
// a remote cancellation does NOT come back as sim.ErrCanceled, because
// the local context is still live and only a local interrupt may carry
// the "interrupted"/exit-130 signature (see wireError's comment).
func TestCanceledDeliberatelyDegrades(t *testing.T) {
	src := fmt.Errorf("sim: bench: %w: ctx done", sim.ErrCanceled)
	if kind := classify(src).kind; kind != kindCanceled {
		t.Fatalf("classify(...).kind = %q, want %q", kind, kindCanceled)
	}
	rt := wireError(kindCanceled, src.Error())
	if errors.Is(rt, sim.ErrCanceled) {
		t.Errorf("remote cancellation must not re-wrap sim.ErrCanceled locally, got %v", rt)
	}
	if rt == nil || rt.Error() == "" {
		t.Errorf("remote cancellation must still carry a message, got %v", rt)
	}
}

// TestUnknownKindDegradesUntyped pins forward compatibility: a kind
// minted by a newer peer degrades to a plain error carrying the
// message, never to a misclassified sentinel.
func TestUnknownKindDegradesUntyped(t *testing.T) {
	rt := wireError("some_future_kind", "novel failure")
	for _, sentinel := range []error{sim.ErrUnknownBenchmark, sim.ErrBadConfig, sim.ErrCanceled} {
		if errors.Is(rt, sentinel) {
			t.Errorf("unknown kind misclassified as %v", sentinel)
		}
	}
	if rt.Error() != "novel failure" {
		t.Errorf("message not preserved: %q", rt.Error())
	}
}
