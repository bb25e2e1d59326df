// Package dispatch is the remote execution layer under sim.Runner: the
// regshared service (Service) and its client (HTTP). A runner executes
// in-process through sim.Simulate by default; `-backend http://addr`
// installs HTTP.Execute as its executor instead, while the runner above
// it keeps doing what it always did — validation, singleflight
// deduplication, the in-memory and sharded on-disk stores, streaming
// completion events. The service runs the same deterministic simulator
// on the same request, so results (and therefore whole scenario
// RunReports) are bit-identical either way; the integration tests pin
// that.
//
// The service has one execution endpoint, POST /v1/run: one sim.Request
// in, one sim.Result out. A remote batch is one /v1/run call per
// request, fanned out by the client's runner, which delivers each
// completion event locally. A stored result is read by posting its
// request: the service's runner answers it from its store without
// simulating.
//
// Commands resolve `-backend local|http://addr` with Remote and wire the
// client into their runner with its Options:
//
//	h, err := dispatch.Remote(*backendFlag)
//	...
//	opts := []sim.Option{sim.WithStore(store)}
//	if h != nil {
//		defer h.Close()
//		opts = append(h.Options(), opts...)
//	}
//	runner := sim.New(opts...)
package dispatch

import (
	"fmt"
	"strings"
)

// Remote parses a -backend flag value:
//
//	"" or "local"        nil: the runner keeps its in-process executor
//	"http://addr[:port]" a client for the regshared service at addr
//	                     (https too)
//
// Anything else is an error.
func Remote(spec string) (*HTTP, error) {
	switch {
	case spec == "" || spec == "local":
		return nil, nil
	case strings.HasPrefix(spec, "http://"), strings.HasPrefix(spec, "https://"):
		return NewHTTP(spec), nil
	default:
		return nil, fmt.Errorf("dispatch: unknown backend %q (known: local | http://addr)", spec)
	}
}
