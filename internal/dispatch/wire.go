package dispatch

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/sim"
)

// The wire encoding shared by the pool worker protocol and the
// regshared HTTP service. Results cross as plain sim.Result JSON —
// Go's float encoding round-trips exactly, which is what keeps reports
// bit-identical across backends — and errors cross as a (kind, message)
// pair so the caller can re-attach the typed sentinel taxonomy of
// internal/sim on its side.

// Wire error kinds.
const (
	kindUnknownBenchmark = "unknown_benchmark"
	kindBadConfig        = "bad_config"
	kindCanceled         = "canceled"
	kindNotFound         = "not_found"
	kindOverloaded       = "overloaded"
	kindInternal         = "internal"
)

// ErrNotFound marks a result lookup whose key has no stored result: a
// plain miss, not a service fault. GET /v1/results answers it with 404
// and kind "not_found", and the client re-wraps it so errors.Is works.
var ErrNotFound = errors.New("dispatch: no stored result")

// simverHeader carries each side's simulator identity (sim.Version) on
// every service request and response, so a version-skewed client/server
// pair is detected instead of silently mixing simulators — the client
// would otherwise write the server's results into its local store under
// its own simver, poisoning the very staleness check the envelope
// exists for.
const simverHeader = "Regshared-Simver"

// comparableSimver reports whether v identifies the simulator substrate
// precisely enough to compare across processes: VCS-derived versions
// ("s1-<rev>") name the source tree and are equal exactly when the code
// is; executable-digest fallbacks ("s1-x…", go run / dirty trees) and
// "s1-unversioned" name one binary, so two different binaries built
// from identical source legitimately differ and cannot be compared.
func comparableSimver(v string) bool {
	return v != "" && v != "s1-unversioned" && !strings.HasPrefix(v, "s1-x")
}

// errorKind classifies err for the wire.
func errorKind(err error) string {
	switch {
	case errors.Is(err, sim.ErrUnknownBenchmark):
		return kindUnknownBenchmark
	case errors.Is(err, sim.ErrBadConfig):
		return kindBadConfig
	case errors.Is(err, sim.ErrCanceled):
		return kindCanceled
	case errors.Is(err, ErrNotFound):
		return kindNotFound
	case errors.Is(err, ErrOverloaded):
		return kindOverloaded
	default:
		return kindInternal
	}
}

// remoteError carries a remote side's error message while keeping the
// typed sentinel reachable through errors.Is.
type remoteError struct {
	msg      string
	sentinel error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.sentinel }

// wireError reconstructs a typed error from its wire form. A remote
// cancellation deliberately does NOT re-wrap sim.ErrCanceled: this
// caller's own context is still live (local cancellation never reaches
// here — the transports classify it first), so the remote side shutting
// down mid-run is an ordinary failure, not the local-interrupt
// signature commands translate into "interrupted"/exit 130. Unknown
// kinds (a newer peer) likewise degrade to an untyped error with the
// message intact.
func wireError(kind, msg string) error {
	var sentinel error
	switch kind {
	case kindUnknownBenchmark:
		sentinel = sim.ErrUnknownBenchmark
	case kindBadConfig:
		sentinel = sim.ErrBadConfig
	case kindNotFound:
		sentinel = ErrNotFound
	case kindOverloaded:
		sentinel = ErrOverloaded
	case kindCanceled:
		return fmt.Errorf("dispatch: run canceled remotely (the backend shut down or aborted it): %s", msg)
	}
	if sentinel == nil {
		return errors.New(msg)
	}
	return &remoteError{msg: msg, sentinel: sentinel}
}

// canceledErr wraps a local context cancellation into the sim taxonomy
// (mirroring the runner's own wrapping, which is unexported).
func canceledErr(bench string, cause error) error {
	return fmt.Errorf("dispatch: %s: %w: %w", bench, sim.ErrCanceled, cause)
}

// ctxCause extracts the context's error, preferring the cancel cause.
func ctxCause(ctx context.Context) error {
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return ctx.Err()
}

// workerRequest is one stdin frame to a pool worker: one request.
//
//repro:wire
type workerRequest struct {
	ID  uint64      `json:"id"`
	Req sim.Request `json:"req"`
}

// workerResponse is one stdout frame from a pool worker: exactly one of
// Result and Err is set.
//
//repro:wire
type workerResponse struct {
	ID     uint64      `json:"id"`
	Result *sim.Result `json:"result,omitempty"`
	Err    string      `json:"error,omitempty"`
	Kind   string      `json:"error_kind,omitempty"`
}
