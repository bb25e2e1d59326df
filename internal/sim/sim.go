// Package sim is the simulation runner every entry point shares: the
// scenario engine (internal/scenario) behind the sweep and figure
// commands (cmd/sweep, cmd/paperfigs), the single-run driver
// (cmd/regsim) and the public regshare API all obtain results through a
// Runner rather than driving internal/core directly.
//
// The API is context-first and streaming: Run(ctx, req) executes one
// request, Stream(ctx, reqs, sink) fans a batch out over the worker
// pool and delivers a completion Event — request key, provenance
// (simulated, in-memory, on-disk store), simulation speed — as each
// request settles. Cancellation reaches into the core cycle loop
// (core.RunContext checks the context every few thousand cycles), so a
// deadline or SIGINT aborts a long grid mid-simulation; errors carry
// the typed taxonomy of errors.go (ErrUnknownBenchmark, ErrBadConfig,
// ErrCanceled, ErrSimFault).
//
// A Runner owns
//
//   - a bounded worker pool sized off runtime.GOMAXPROCS, so arbitrarily
//     wide fan-outs (a figure's grid asking for 36 benchmarks × 6
//     configurations at once) never oversubscribe the machine;
//   - request deduplication with singleflight semantics, keyed by
//     (benchmark, configuration, warmup, measure): concurrent callers
//     asking for the same run block on one simulation instead of
//     re-running it — e.g. every figure's speedup series shares one
//     baseline sweep. A canceled leader does not poison the slot: the
//     failed call is dropped and surviving waiters retry it themselves;
//   - an in-memory result store (the simulator is deterministic, so a
//     result never goes stale) with an optional sharded on-disk store
//     (see Store) so separate invocations — and separate concurrent
//     processes or machines sharing one -store — reuse each other's
//     runs. Only
//     completed simulations are written back, so an interrupted run
//     never leaves partial entries.
package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/refcount"
	"repro/internal/workloads"
)

// Request names one simulation: a workload name (a catalog benchmark or
// a gen: generator point — anything workloads.Resolve accepts), a full
// machine configuration and the run lengths. The Runner canonicalizes
// Bench before keying, so equivalent spellings of one generator point
// share a dedup slot and a store entry.
type Request struct {
	Bench   string
	Config  core.Config
	Warmup  uint64
	Measure uint64
}

// MEStats snapshots the move-elimination counters of one run. It is the
// pure-value subset of moveelim.Eliminator (whose policy config would
// not survive the disk cache's JSON round-trip).
type MEStats struct {
	Candidates      uint64
	Eliminated      uint64
	TrackerRejected uint64
	SelfMoves       uint64
}

// MemStats summarizes the memory hierarchy counters of one run (the
// subset cmd/regsim -v reports).
type MemStats struct {
	L1DAccesses uint64
	L1DMisses   uint64
	L2Accesses  uint64
	L2Misses    uint64
	DRAMReads   uint64
}

// Result captures one simulation's outcome. It is a pure value — safe to
// share between callers and to round-trip through the disk cache — so it
// carries statistics snapshots, not the simulated core itself.
type Result struct {
	Bench       string
	StaticUops  int
	TrackerName string
	IPC         float64
	S           core.Stats
	Tracker     refcount.Stats
	ME          MEStats
	Mem         MemStats
}

// Counters reports what the Runner did, for tests and -v diagnostics.
type Counters struct {
	Simulated uint64 // runs actually executed
	MemHits   uint64 // served from the in-memory store (incl. singleflight waits)
	DiskHits  uint64 // served from the on-disk cache
}

// Option configures a Runner.
type Option func(*Runner)

// Executor produces the result of one validated request. It is the
// Runner's pluggable execution backend: the default, Simulate, runs the
// request in-process on a fresh core; internal/dispatch substitutes a
// remote regshared service. Everything above the executor — validation,
// singleflight deduplication, the in-memory and on-disk stores,
// streaming events — is backend-independent, which is what makes
// results bit-identical across backends.
type Executor func(ctx context.Context, req Request) (*Result, error)

// WithExecutor replaces the Runner's execution backend (default:
// Simulate, in-process). A nil executor leaves the default in place.
func WithExecutor(e Executor) Option {
	return func(r *Runner) {
		if e != nil {
			r.exec = e
		}
	}
}

// WithWorkers bounds the worker pool at n (default: GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(r *Runner) {
		if n > 0 {
			r.workers = n
		}
	}
}

// WithStore attaches an existing on-disk result store to the Runner.
func WithStore(s *Store) Option {
	return func(r *Runner) { r.store = s }
}

// Runner runs simulations with deduplication, caching and a bounded
// worker pool. The zero value is not usable; call New.
type Runner struct {
	workers int
	sem     chan struct{}
	store   *Store
	exec    Executor

	mu    sync.Mutex
	calls map[string]*call
	ctr   Counters
}

// call is one singleflight slot: the first requester simulates, everyone
// else blocks on done.
type call struct {
	done chan struct{}
	res  *Result
	err  error
	src  Source
	cps  float64
}

// Source is the provenance of a completed request: where its result
// came from.
type Source uint8

// Event provenance values.
const (
	// SourceSimulated: this call executed the simulation.
	SourceSimulated Source = iota
	// SourceMemory: served by the in-memory store — a singleflight join
	// with a concurrent caller, or a repeat of a completed request.
	SourceMemory
	// SourceStore: loaded from the sharded on-disk store.
	SourceStore
)

// String names the provenance for progress lines and logs.
func (s Source) String() string {
	switch s {
	case SourceSimulated:
		return "simulated"
	case SourceMemory:
		return "memory"
	case SourceStore:
		return "store"
	default:
		return fmt.Sprintf("source(%d)", uint8(s))
	}
}

// Event is one per-request completion notification from Stream: which
// request settled (Index into the request slice, plus its deduplication
// Key), its result or typed error, where the result came from, and —
// for freshly simulated requests — the simulation speed.
type Event struct {
	// Index is the request's position in the Stream call's slice (-1
	// for single-request Run paths).
	Index int
	// Key is the request's deduplication key (empty if the request
	// failed validation before keying).
	Key string
	// Req echoes the request.
	Req Request
	// Res is the completed result (nil when Err is set).
	Res *Result
	// Err is the request's typed error, if any (see errors.go).
	Err error
	// Source is the result's provenance.
	Source Source
	// CyclesPerSec is the simulated-cycles-per-wall-second rate of the
	// simulation that produced the result. In-memory joins carry the
	// original simulation's rate; results loaded from the on-disk store
	// report zero (the producing process is gone). Aggregate throughput
	// should therefore only sum events with Source == SourceSimulated
	// (as Progress does).
	CyclesPerSec float64
}

// New builds a Runner.
func New(opts ...Option) *Runner {
	r := &Runner{
		workers: runtime.GOMAXPROCS(0),
		calls:   make(map[string]*call),
		exec:    Simulate,
	}
	for _, o := range opts {
		o(r)
	}
	if r.workers < 1 {
		r.workers = 1
	}
	r.sem = make(chan struct{}, r.workers)
	return r
}

// cacheVersion tags disk-cache filenames with the simulator's identity,
// so a long-lived -store is invalidated automatically when the
// simulator changes instead of silently serving stale results. A clean
// VCS build is tagged with its revision (stable across rebuilds of the
// same commit); anything else — go run, test binaries, dirty trees —
// falls back to a digest of the executable itself, which changes on
// every rebuild. The "s1" schema number covers Result layout changes.
var cacheVersion = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" && !dirty {
			return "s1-" + rev[:min(12, len(rev))]
		}
	}
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			h := sha256.Sum256(data)
			return "s1-x" + hex.EncodeToString(h[:6])
		}
	}
	return "s1-unversioned"
})

// Version returns the simulator identity tag recorded in every on-disk
// store envelope (see Store): entries written by a different simulator
// version are treated as misses. CI uses it as the cache key for the
// shared store directory (`sweep -simver` / `regshared -simver`), so a
// workflow cache is reused exactly as long as the store itself would
// serve its entries.
func Version() string { return cacheVersion() }

// Key returns the deduplication key of req: the benchmark name, a digest
// of the full configuration (which is pure data, so its JSON encoding is
// deterministic) and the run lengths. The simulator version tag is NOT
// part of this key — in-memory results can never be stale — the on-disk
// Store instead records it in each entry's envelope header and treats a
// mismatch as a miss (see Store.Load).
func Key(req Request) string {
	cfg, err := json.Marshal(req.Config)
	if err != nil {
		panic(fmt.Sprintf("sim: config not encodable: %v", err))
	}
	h := sha256.Sum256(cfg)
	return fmt.Sprintf("%s-%d-%d-%s", req.Bench, req.Warmup, req.Measure, hex.EncodeToString(h[:8]))
}

// Counters returns a snapshot of the Runner's activity counters.
func (r *Runner) Counters() Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ctr
}

// Run returns the result for req, simulating it at most once per Runner
// (and at most once per cache directory when the disk cache is enabled).
// Concurrent calls for the same request block on a single simulation.
// Canceling ctx aborts the simulation mid-cycle-loop (and the wait, if
// this caller joined another caller's simulation); the error then wraps
// ErrCanceled and the context's own cause. The returned Result is
// shared: callers must not mutate it.
func (r *Runner) Run(ctx context.Context, req Request) (*Result, error) {
	ev := r.do(ctx, -1, req)
	return ev.Res, ev.Err
}

// do executes one request and packages the outcome as an Event. It is
// the single execution path under Run and Stream: validation, then the
// singleflight map, then fill. A caller that joins a leader which gets
// canceled — while its own context is still live — retries the request
// itself rather than inheriting the leader's cancellation, so one
// aborted Stream never fails an unrelated concurrent caller.
func (r *Runner) do(ctx context.Context, idx int, req Request) Event {
	// Canonicalize the workload name before anything keys on it, so the
	// many equivalent spellings of a gen: point share one singleflight
	// slot and one store entry. An invalid name passes through unchanged
	// for Validate to reject with the typed error.
	if name, err := workloads.CanonicalName(req.Bench); err == nil {
		req.Bench = name
	}
	ev := Event{Index: idx, Req: req}
	if err := req.Validate(); err != nil {
		ev.Err = err
		return ev
	}
	ev.Key = Key(req)
	for {
		r.mu.Lock()
		c, ok := r.calls[ev.Key]
		if !ok {
			c = &call{done: make(chan struct{})}
			r.calls[ev.Key] = c
			r.mu.Unlock()

			c.res, c.src, c.cps, c.err = r.fill(ctx, ev.Key, req)
			if c.err != nil {
				// Do not poison the slot with a failure (cancellation
				// included): drop it — before waking the waiters, so
				// their retries cannot rejoin the dead call — and let
				// any later caller re-run the request.
				r.mu.Lock()
				delete(r.calls, ev.Key)
				r.mu.Unlock()
			}
			close(c.done)
			ev.Res, ev.Source, ev.CyclesPerSec, ev.Err = c.res, c.src, c.cps, c.err
			return ev
		}
		r.mu.Unlock()

		select {
		case <-c.done:
		case <-ctx.Done():
			ev.Err = canceledErr(req.Bench, ctx.Err())
			return ev
		}
		if c.err != nil && errors.Is(c.err, ErrCanceled) && ctx.Err() == nil {
			continue // the leader was canceled, this caller was not: retry
		}
		// Count the hit only for a join that actually yields the call's
		// outcome — a retry after a canceled leader is not served from
		// memory, so it must not inflate the hit counters.
		r.mu.Lock()
		r.ctr.MemHits++
		r.mu.Unlock()
		ev.Res, ev.Err = c.res, c.err
		ev.Source, ev.CyclesPerSec = SourceMemory, c.cps
		return ev
	}
}

// fill produces the result for key: disk cache first, then a worker slot
// and a real simulation (written back to the disk cache on the way out).
// Cancellation is honored while queuing for a worker slot and, through
// core.RunContext, inside the simulation itself; only a completed
// simulation reaches the on-disk store.
func (r *Runner) fill(ctx context.Context, key string, req Request) (*Result, Source, float64, error) {
	if res, ok := r.loadDisk(ctx, key); ok {
		r.mu.Lock()
		r.ctr.DiskHits++
		r.mu.Unlock()
		return res, SourceStore, 0, nil
	}

	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, 0, 0, canceledErr(req.Bench, ctx.Err())
	}
	defer func() { <-r.sem }()

	start := time.Now() //repro:allow nodeterm -- wall-clock measurement metadata, not a simulated result
	res, err := r.exec(ctx, req)
	if err != nil {
		return nil, 0, 0, err
	}
	secs := time.Since(start).Seconds() //repro:allow nodeterm -- wall-clock measurement metadata, not a simulated result
	if secs <= 0 {
		// A sub-clock-resolution run must not produce a +Inf rate: it is
		// not JSON-encodable, which would drop the event from the
		// regshared NDJSON stream.
		secs = 1e-9
	}
	cps := float64(res.S.Cycles) / secs
	r.mu.Lock()
	r.ctr.Simulated++
	r.mu.Unlock()
	r.storeDisk(ctx, key, res)
	return res, SourceSimulated, cps, nil
}

// Stream fans the requests out over the worker pool and invokes sink —
// serialized, so sinks need no locking — with a completion Event as
// each request settles, in completion order. Results come back in
// request order. All requests settle before Stream returns; the
// returned error is the first non-cancellation error in request order,
// or the first cancellation error when the whole batch was interrupted.
// sink may be nil.
func (r *Runner) Stream(ctx context.Context, reqs []Request, sink func(Event)) ([]*Result, error) {
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	var sinkMu sync.Mutex
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ev := r.do(ctx, i, reqs[i])
			results[i], errs[i] = ev.Res, ev.Err
			if sink != nil {
				sinkMu.Lock()
				sink(ev)
				sinkMu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	var firstCanceled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrCanceled) {
			if firstCanceled == nil {
				firstCanceled = err
			}
			continue
		}
		return results, err
	}
	return results, firstCanceled
}

// RunAll is Stream without a sink: results in request order, first
// typed error after all requests settle.
func (r *Runner) RunAll(ctx context.Context, reqs []Request) ([]*Result, error) {
	return r.Stream(ctx, reqs, nil)
}

// Simulate is the in-process execution primitive: it validates req and
// runs it on a fresh core, with no deduplication, stores or worker
// pool. It is the Runner's default Executor, and what the regshared
// service and fleet hosts execute on their side. A simulator panic
// comes back as an ErrSimFault wrap instead of crashing the process.
func Simulate(ctx context.Context, req Request) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return simulate(ctx, req)
}

// simulate executes one run on a fresh core. The request has already
// passed Validate, so lookup and construction cannot fail; the context
// is the one way out early, surfacing as a typed ErrCanceled wrap.
//
// A panic in the simulator (the commit-deadlock detector, whose value
// carries the core's debug state, or a constructor assert) is recovered
// into an ErrSimFault wrap, failing this request alone. That is sound
// because nothing a simulation writes outlives it: its core and tracker
// are private to this call, and core.New writes nothing at package
// level. The program is shared — workloads.Build memoizes it, so
// concurrent and later requests for the same workload get the same
// *program.Program — but it is read-only: no code writes a Program
// after Build returns (the core's functional executor clones the
// initial memory image and stores only into its copy), and Build
// publishes a program only once it is fully built, so a panic while
// building leaves nothing in the memo. The other shared value on the
// path, the workloads catalog behind a sync.OnceValue, is read-only
// once built too (a panic while building it re-panics identically on
// every call). A faulted run therefore leaves nothing behind for the
// next one.
func simulate(ctx context.Context, req Request) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, fmt.Errorf("sim: %s: %w: %v", req.Bench, ErrSimFault, v)
		}
	}()
	spec, err := workloads.Resolve(req.Bench)
	if err != nil {
		return nil, fmt.Errorf("sim: %w %q", ErrUnknownBenchmark, req.Bench)
	}
	prog := workloads.Build(spec)
	c := core.New(req.Config, prog)
	st, err := c.RunContext(ctx, req.Warmup, req.Measure)
	if err != nil {
		return nil, canceledErr(req.Bench, err)
	}
	return Snapshot(req.Bench, prog.NumInsts(), c, st), nil
}

// Snapshot packages a finished simulation into a Result. It is the one
// place the simulated core's statistics are flattened into the pure
// value form; callers that drive a core directly (cmd/regsim -trace)
// use it too, so the two paths cannot drift apart.
func Snapshot(bench string, staticUops int, c *core.Core, st *core.Stats) *Result {
	h := c.Mem()
	me := c.MoveElim()
	return &Result{
		Bench:       bench,
		StaticUops:  staticUops,
		TrackerName: c.Tracker().Name(),
		IPC:         st.IPC(),
		S:           *st,
		Tracker:     *c.Tracker().Stats(),
		ME: MEStats{
			Candidates:      me.Candidates,
			Eliminated:      me.Eliminated,
			TrackerRejected: me.TrackerRejected,
			SelfMoves:       me.SelfMoves,
		},
		Mem: MemStats{
			L1DAccesses: h.L1D.Accesses,
			L1DMisses:   h.L1D.Misses,
			L2Accesses:  h.L2.Accesses,
			L2Misses:    h.L2.Misses,
			DRAMReads:   h.Mem.Reads,
		},
	}
}

// --- on-disk cache ------------------------------------------------------

func (r *Runner) loadDisk(ctx context.Context, key string) (*Result, bool) {
	if r.store == nil {
		return nil, false
	}
	return r.store.Load(ctx, key)
}

// storeDisk writes res to the attached store, if any. Cache write
// failures are ignored: the in-memory result is already correct. The
// write runs with the caller's cancellation stripped: the simulation
// already completed, and dropping its result because the requester
// went away would waste the work for every future requester.
func (r *Runner) storeDisk(ctx context.Context, key string, res *Result) {
	if r.store != nil {
		r.store.Put(context.WithoutCancel(ctx), key, res)
	}
}
