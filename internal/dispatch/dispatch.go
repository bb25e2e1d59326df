// Package dispatch is the pluggable execution layer under sim.Runner:
// it decides *where* a validated sim.Request actually executes, while
// the runner above it keeps doing what it always did — validation,
// singleflight deduplication, the in-memory and sharded on-disk stores,
// streaming completion events. Because every backend runs the same
// deterministic simulator on the same request, the results (and
// therefore whole scenario RunReports) are bit-identical across
// backends; the integration tests pin that.
//
// Two backends implement the Backend interface:
//
//   - Local — the in-process path (sim.Simulate), the default. A
//     simulator fault comes back as a typed sim.ErrSimFault for its
//     own request;
//   - HTTP — a client for the regshared service (cmd/regshared), which
//     exposes the same runner over POST /v1/run, POST /v1/stream and
//     GET /v1/results/{key}.
//
// Commands select a backend with `-backend local|http://addr` (see New)
// and wire it into their runner with Options:
//
//	backend, err := dispatch.New(*backendFlag)
//	...
//	defer backend.Close()
//	runner := sim.New(append(dispatch.Options(backend), sim.WithStore(store))...)
package dispatch

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/sim"
)

// Backend executes validated simulation requests somewhere: in-process
// or on a remote service. Execute must be safe for concurrent use; the
// runner calls it from its worker pool. Close releases the backend's
// resources (idle connections) once no Execute calls remain in flight.
type Backend interface {
	Execute(ctx context.Context, req sim.Request) (*sim.Result, error)
	Close() error
}

// New parses a -backend flag value:
//
//	"" or "local"        the in-process backend
//	"http://addr[:port]" the regshared service at addr (https too)
func New(spec string) (Backend, error) {
	switch {
	case spec == "" || spec == "local":
		return Local{}, nil
	case strings.HasPrefix(spec, "http://"), strings.HasPrefix(spec, "https://"):
		return NewHTTP(spec), nil
	default:
		return nil, fmt.Errorf("dispatch: unknown backend %q (known: local | http://addr)", spec)
	}
}

// Options returns the sim.New options wiring b into a runner: the
// executor itself, plus a worker-pool width matching the backend's real
// concurrency. An HTTP backend's capacity lives on the server (which
// gates with its own runner), so the client just needs enough requests
// in flight to keep a large remote pool fed — a local GOMAXPROCS gate
// on a laptop would idle a 64-worker service.
func Options(b Backend) []sim.Option {
	opts := []sim.Option{sim.WithExecutor(b.Execute)}
	if _, ok := b.(*HTTP); ok {
		opts = append(opts, sim.WithWorkers(max(16, 4*runtime.GOMAXPROCS(0))))
	}
	return opts
}

// Local is the in-process backend: Execute is sim.Simulate on the
// calling process, the same primitive the regshared service's runner
// executes. It is the zero-cost default.
type Local struct{}

// Execute runs req on this process.
func (Local) Execute(ctx context.Context, req sim.Request) (*sim.Result, error) {
	return sim.Simulate(ctx, req)
}

// Close is a no-op: Local holds no resources.
func (Local) Close() error { return nil }
