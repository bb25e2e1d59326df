package dispatch

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestSentinelsSurviveWireRoundTrip pins the error-taxonomy contract
// across the wire: a typed sim error classified on one side
// (errorKind) and reconstructed on the other (wireError) must still
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
			rt := wireError(errorKind(tc.err), tc.err.Error())
			if !errors.Is(rt, tc.sentinel) {
				t.Errorf("errors.Is lost the sentinel across the wire: %v", rt)
			}
			if rt.Error() == "" {
				t.Error("round-trip dropped the message")
			}
		})
	}
}

// TestCanceledDeliberatelyDegrades documents the one asymmetry:
// a remote cancellation does NOT come back as sim.ErrCanceled, because
// the local context is still live and only a local interrupt may carry
// the "interrupted"/exit-130 signature (see wireError's comment).
func TestCanceledDeliberatelyDegrades(t *testing.T) {
	src := fmt.Errorf("sim: bench: %w: ctx done", sim.ErrCanceled)
	if kind := errorKind(src); kind != kindCanceled {
		t.Fatalf("errorKind = %q, want %q", kind, kindCanceled)
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
