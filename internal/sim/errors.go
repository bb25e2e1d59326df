package sim

import (
	"errors"
	"fmt"

	"repro/internal/workloads"
)

// The runner's error taxonomy. Every error the execution API returns
// wraps exactly one of these sentinels, so callers branch with
// errors.Is instead of matching message strings:
//
//   - ErrUnknownBenchmark: the request's workload name is one
//     workloads.Resolve rejects — neither a catalog benchmark nor a
//     well-formed gen: generator name;
//   - ErrBadConfig: the request's machine configuration or run lengths
//     cannot be simulated (zero measured region, unsized windows,
//     unknown tracker kind, ...);
//   - ErrCanceled: the run was interrupted — the error also wraps the
//     context's own cause, so errors.Is(err, context.Canceled) and
//     errors.Is(err, context.DeadlineExceeded) keep working;
//   - ErrSimFault: the simulator panicked on a request that passed
//     validation (a commit deadlock, a constructor assert). The fault is
//     deterministic for the request, so a retry cannot help, and the
//     failed result is never stored.
var (
	ErrUnknownBenchmark = errors.New("unknown benchmark")
	ErrBadConfig        = errors.New("bad configuration")
	ErrCanceled         = errors.New("run canceled")
	ErrSimFault         = errors.New("simulator fault")
)

// canceledErr wraps a context cancellation into the typed taxonomy,
// keeping the context's own sentinel reachable through errors.Is.
func canceledErr(bench string, cause error) error {
	return fmt.Errorf("sim: %s: %w: %w", bench, ErrCanceled, cause)
}

// Validate rejects a request the runner cannot execute, with a typed
// error. Every entry point — Run, Stream and everything layered on them
// — applies the same contract, so regshare, the scenario engine and
// direct callers cannot drift apart on what a runnable request is.
func (req Request) Validate() error {
	_, err := workloads.Resolve(req.Bench)
	return req.validate(err)
}

// validate is Validate with the workload name already resolved: nameErr
// is what workloads.Resolve(req.Bench) returned. The run lengths and the
// configuration are checked before the name, so a request wrong in both
// is a bad configuration.
func (req Request) validate(nameErr error) error {
	if req.Measure == 0 {
		return fmt.Errorf("sim: %s: %w: measure must be positive (a zero measured region yields no statistics)",
			req.Bench, ErrBadConfig)
	}
	if err := req.Config.Check(); err != nil {
		return fmt.Errorf("sim: %s: %w: %w", req.Bench, ErrBadConfig, err)
	}
	if nameErr != nil {
		return fmt.Errorf("sim: %w %q: %w", ErrUnknownBenchmark, req.Bench, nameErr)
	}
	return nil
}
