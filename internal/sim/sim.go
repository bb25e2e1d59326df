// Package sim is the simulation runner every entry point shares: the
// scenario engine (internal/scenario) behind the sweep and figure
// commands (cmd/sweep, cmd/paperfigs), the single-run driver
// (cmd/regsim) and the public regshare API all obtain results through a
// Runner rather than driving internal/core directly.
//
// The API is context-first and streaming: Stream(ctx, reqs, sink) fans
// a batch out over the worker pool and delivers a completion Event —
// the request's index and key, its result or typed error, and its
// provenance (simulated, in-memory, on-disk store) — as each request
// settles, and Run(ctx, req) is a Stream of one request, so every
// request takes one path through a batch; a batch of one runs on its
// caller's goroutine. The runner reads no clock: a caller that wants
// timing keeps its own (Progress does). Cancellation
// reaches into the core cycle loop (core.RunContext checks the context
// every few thousand cycles), so a deadline or SIGINT aborts a long
// grid mid-simulation; errors carry the typed taxonomy of errors.go
// (ErrUnknownBenchmark, ErrBadConfig, ErrCanceled, ErrSimFault).
//
// A Runner owns
//
//   - a bounded worker pool sized off runtime.GOMAXPROCS, so arbitrarily
//     wide fan-outs (a figure's grid asking for 36 benchmarks × 6
//     configurations at once) never oversubscribe the machine: at most
//     that many simulations execute at once, and a larger batch than
//     one settles store hits on that many goroutines, whose stacks have
//     already grown; a request of such a batch that waits — after a
//     store miss, or to join a call in flight — gets a goroutine of its
//     own;
//   - request deduplication with singleflight semantics, keyed by
//     (benchmark, configuration, warmup, measure): concurrent callers
//     asking for the same run block on one simulation instead of
//     re-running it — e.g. every figure's speedup series shares one
//     baseline sweep. A canceled leader does not poison the slot: the
//     failed call is dropped and surviving waiters retry it themselves;
//   - execution sharing by dominance: after a store miss, a request is
//     served by an executing call of its tracker class
//     (core.Config.TrackerClass) that is no looser in either tracker
//     limit and never rejected a share on a limit the request raises
//     (core.TrackerLimits.Serves) — that run is the request's own, share
//     for share — and each request is stored under its own key;
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
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/refcount"
	"repro/internal/wirejson"
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
// Each counts requests that settled with a result; a failed request
// counts in none.
type Counters struct {
	Simulated uint64 // runs actually executed
	MemHits   uint64 // served from memory: singleflight waits, repeats, and runs of the request's tracker class
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

// WithWorkers bounds the worker pool at n (default: GOMAXPROCS): the
// simulations executing at once, and the goroutines a Stream settles
// store hits on.
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

	// The Counters, each bumped where a request's source is decided.
	simulated, memHits, diskHits atomic.Uint64

	mu      sync.Mutex
	calls   map[string]*call   // by request key: one slot per request
	classes map[string][]*call // by tracker class key: the class's executing calls
}

// call is one singleflight slot: the first requester produces the
// outcome, everyone else blocks on done. A call that executes is also
// registered under its tracker class (see Runner.claim), where once done
// it serves every request of the class that its limits and statistics
// allow; a failed call leaves the registry before done closes, so it
// serves nobody.
type call struct {
	done  chan struct{}
	batch *batch // the first requester's Stream batch
	class string // tracker class key and limits, once the call missed the store
	lim   core.TrackerLimits
	res   *Result
	err   error
}

// Source is the provenance of a completed request: where its result
// came from.
type Source uint8

// Event provenance values.
const (
	// SourceSimulated: this call executed the simulation.
	SourceSimulated Source = iota
	// SourceMemory: served by the in-memory store — a singleflight join
	// with a concurrent caller, a repeat of a completed request, or a
	// run of the request's tracker class that serves it (see
	// Runner.fill).
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
// Key), its result or typed error, and where the result came from. The
// request itself is the caller's, at Index.
type Event struct {
	// Index is the request's position in the Stream call's slice (0
	// under Run, a Stream of one request).
	Index int
	// Key is the request's deduplication key (empty if the request
	// failed validation before keying).
	Key string
	// Res is the completed result (nil when Err is set).
	Res *Result
	// Err is the request's typed error, if any (see errors.go).
	Err error
	// Source is the result's provenance.
	Source Source
}

// New builds a Runner.
func New(opts ...Option) *Runner {
	r := &Runner{
		workers: runtime.GOMAXPROCS(0),
		calls:   make(map[string]*call),
		classes: make(map[string][]*call),
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

// Key returns the deduplication key of req: the benchmark name, the run
// lengths and the digest of the full configuration, assembled as
// KeyOf(req.Bench, req.Warmup, req.Measure, DigestOf(&req.Config)). The
// encoding, the digest and the key are built in stack buffers, so Key
// allocates only the string it returns. The simulator version tag is NOT
// part of this key — in-memory results can never be stale — the on-disk
// Store instead records it in each entry's envelope header and treats a
// mismatch as a miss (see Store.Load).
func Key(req Request) string {
	return KeyOf(req.Bench, req.Warmup, req.Measure, DigestOf(&req.Config))
}

// ConfigDigest identifies a configuration inside a Key: the first 8
// bytes of the SHA-256 of the bytes json.Marshal writes for it.
type ConfigDigest [8]byte

// DigestOf returns cfg's digest. A config is pure data, so its JSON
// encoding is deterministic; configJSON writes it without encoding/json,
// into a stack buffer. A caller keying many requests of one config, as
// scenario.Expand does, digests it once and assembles each key with
// KeyOf.
func DigestOf(cfg *core.Config) ConfigDigest {
	var buf [configSize]byte
	enc, err := configJSON.Append(buf[:0], cfg)
	if err != nil {
		panic(fmt.Sprintf("sim: config not encodable: %v", err))
	}
	h := sha256.Sum256(enc)
	return ConfigDigest(h[:8])
}

// KeyOf assembles the Key of a request for bench with the given run
// lengths and config digest, allocating only the string it returns.
func KeyOf(bench string, warmup, measure uint64, d ConfigDigest) string {
	var kb [128]byte
	k := append(kb[:0], bench...)
	k = strconv.AppendUint(append(k, '-'), warmup, 10)
	k = strconv.AppendUint(append(k, '-'), measure, 10)
	k = hex.AppendEncode(append(k, '-'), d[:])
	return string(k)
}

// configJSON writes the config DigestOf hashes; configSize holds the about
// 1.9 KB it writes for the paper's Table 1 machine.
var configJSON = wirejson.For[core.Config]()

const configSize = 2 << 10

// Counters returns a snapshot of the Runner's activity counters.
func (r *Runner) Counters() Counters {
	return Counters{Simulated: r.simulated.Load(), MemHits: r.memHits.Load(), DiskHits: r.diskHits.Load()}
}

// Run returns the result for req, simulating it at most once per Runner
// (and at most once per cache directory when the disk cache is enabled).
// Concurrent calls for the same request block on a single simulation.
// Canceling ctx aborts the simulation mid-cycle-loop (and the wait, if
// this caller joined another caller's simulation); the error then wraps
// ErrCanceled and the context's own cause. The returned Result is
// shared: callers must not mutate it. Run is a Stream of one request,
// so it runs on the caller's goroutine.
func (r *Runner) Run(ctx context.Context, req Request) (*Result, error) {
	res, err := r.Stream(ctx, []Request{req}, nil)
	return res[0], err
}

// do executes request idx of batch b and packages the outcome as an
// Event. It is the single execution path under Stream: validation, then
// the request's singleflight slot, then fill.
func (r *Runner) do(ctx context.Context, b *batch, idx int) Event {
	req, nameErr := b.canonical(b.reqs[idx])
	ev := Event{Index: idx}
	if err := req.validate(nameErr); err != nil {
		ev.Err = err
		return ev
	}
	ev.Key = Key(req)
	ev.Res, ev.Source, ev.Err = r.share(ctx, b, idx, ev.Key, req)
	return ev
}

// canonical returns req with its workload name canonicalized, so the
// many equivalent spellings of a gen: point share one singleflight slot
// and one store entry, and the error workloads.Resolve gave the name:
// the one parse both canonicalizes and validates it. An invalid name
// passes through unchanged for validate to reject with the typed error.
func canonical(req Request) (Request, error) {
	spec, err := workloads.Resolve(req.Bench)
	if err == nil {
		req.Bench = spec.Name
	}
	return req, err
}

// share is the Runner's singleflight over request keys: the first
// caller for key runs fill and keeps its outcome in the slot, and every
// other caller, concurrent or later, waits for that outcome and gets it
// as a memory hit. A failed outcome, cancellation included, is not kept:
// the slot is dropped before the waiters wake, so their retries cannot
// rejoin the dead call, and a later caller runs fill again. A waiter
// whose leader was canceled while its own context is still live retries
// itself rather than inheriting the cancellation, so one aborted Stream
// never fails an unrelated concurrent caller.
//
// A request that joins a call another batch has in flight settles in
// its own batch at once, as serving nobody there: the batch's misses
// wait only on calls of their own batch, so two batches can never wait
// on each other. A request that joins a call in flight leaves its
// batch's hit path first (batch.leave).
func (r *Runner) share(ctx context.Context, b *batch, idx int, key string, req Request) (*Result, Source, error) {
	for {
		r.mu.Lock()
		c, ok := r.calls[key]
		if !ok {
			c = &call{done: make(chan struct{}), batch: b}
			r.calls[key] = c
			r.mu.Unlock()

			var src Source
			c.res, src, c.err = r.fill(ctx, c, idx, key, req)
			if c.err != nil {
				r.mu.Lock()
				delete(r.calls, key)
				if i := slices.Index(r.classes[c.class], c); i >= 0 {
					r.classes[c.class] = slices.Delete(r.classes[c.class], i, i+1)
				}
				r.mu.Unlock()
			}
			close(c.done)
			return c.res, src, c.err
		}
		r.mu.Unlock()

		select {
		case <-c.done:
		default:
			if c.batch != b {
				b.settle(idx, nil)
			}
			b.leave(ctx, idx)
		}
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, 0, canceledErr(req.Bench, ctx.Err())
		}
		if c.err != nil && errors.Is(c.err, ErrCanceled) && ctx.Err() == nil {
			continue // the leader was canceled, this caller was not: retry
		}
		// Count the hit only for a join that yields a result: a retry
		// after a canceled leader is not served from memory, and a failed
		// call serves nobody.
		if c.err == nil {
			r.memHits.Add(1)
		}
		return c.res, SourceMemory, c.err
	}
}

// fill produces the result for key: the on-disk store first, then an
// executing call of the request's tracker class that serves it
// (core.TrackerLimits.Serves), then an execution. The class is computed
// only here, after a store miss, so a stored request stays a store hit.
// A served request gets the executing call's result under its own
// tracker name, as a memory hit, and every request's result is written
// back to the store under its own key.
//
// Which requests of one batch execute never depends on goroutine
// timing. A miss first waits, in index order, on the requests of its
// class earlier in its batch that are no looser in either limit, and is
// served by the first whose result serves it, however that result was
// produced. Otherwise it takes a completed call of another batch, or
// joins one in flight, that serves it; calls of its own batch serve it
// only through that wait. Failing that, c registers in its class and
// executes. A miss leaves its batch's hit path before any of this
// (batch.leave).
func (r *Runner) fill(ctx context.Context, c *call, idx int, key string, req Request) (*Result, Source, error) {
	if r.store != nil {
		if res, ok := r.store.Load(ctx, key); ok {
			r.diskHits.Add(1)
			return res, SourceStore, nil
		}
	}
	b := c.batch
	b.leave(ctx, idx)
	var earlier []int
	c.class, c.lim, earlier = b.earlier(idx)
	res, err := b.serving(ctx, earlier, c.lim)
	if err == nil && res == nil {
		res, err = r.claim(ctx, c)
	}
	if err != nil {
		return nil, 0, canceledErr(req.Bench, err)
	}
	src := SourceMemory
	if res != nil {
		res = renamed(res, req)
		r.memHits.Add(1)
	} else {
		if res, err = r.execute(ctx, req); err != nil {
			return nil, 0, err
		}
		src = SourceSimulated
		r.simulated.Add(1)
	}
	if r.store != nil {
		// A failed write is ignored: the in-memory result is already
		// correct. The write runs with the caller's cancellation
		// stripped: the result is complete, and dropping it because the
		// requester went away would waste the work for every future
		// requester.
		_ = r.store.Put(context.WithoutCancel(ctx), key, res)
	}
	return res, src, nil
}

// claim returns the result of a completed call of c's tracker class
// that serves c's limits, joining calls in flight that may serve them
// first; calls of c's batch are not considered. When none serves, it
// registers c in the class, for the caller to execute, and returns nil.
// It fails only when ctx ends. A call is complete once done is closed:
// share writes its result without r.mu, so claim reads the result only
// after receiving from done.
func (r *Runner) claim(ctx context.Context, c *call) (*Result, error) {
	for {
		var pending *call
		r.mu.Lock()
		for _, o := range r.classes[c.class] {
			if o.batch == c.batch || !o.lim.Within(c.lim) {
				continue
			}
			select {
			case <-o.done:
				if o.lim.Serves(c.lim, &o.res.Tracker) {
					r.mu.Unlock()
					return o.res, nil
				}
			default:
				pending = o
			}
		}
		if pending == nil {
			r.classes[c.class] = append(r.classes[c.class], c)
			r.mu.Unlock()
			return nil, nil
		}
		r.mu.Unlock()
		select {
		case <-pending.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// classOf returns req's tracker class key, the key of its configuration
// with the tracker reduced to its class (core.Config.TrackerClass), and
// its limits within the class.
func classOf(req Request) (string, core.TrackerLimits) {
	cls, lim := req.Config.TrackerClass()
	req.Config = cls
	return Key(req), lim
}

// renamed returns res, the result of a run of req's tracker class that
// serves req, as req's own result: the same value under req's tracker
// name.
func renamed(res *Result, req Request) *Result {
	name := req.Config.NewTracker().Name()
	if name == res.TrackerName {
		return res
	}
	own := *res
	own.TrackerName = name
	return &own
}

// execute runs req on the executor in a worker slot. Cancellation is
// honored while queuing for the slot and, through core.RunContext,
// inside the simulation itself, so only a completed simulation reaches
// the on-disk store.
func (r *Runner) execute(ctx context.Context, req Request) (*Result, error) {
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, canceledErr(req.Bench, ctx.Err())
	}
	defer func() { <-r.sem }()
	return r.exec(ctx, req)
}

// Stream fans the requests out over the worker pool and invokes sink —
// serialized, so sinks need no locking — with a completion Event as
// each request settles, in completion order. Results come back in
// request order. A batch of one request, Run's included, runs on the
// caller's goroutine, sink call and all. A larger batch starts its
// requests in index order on at most WithWorkers goroutines, which
// settle store hits one after another, while the caller only waits: a
// caller that also took requests would leave the goroutine it started
// last queued in its own P's runnext slot until the caller blocked. A
// request that is about to wait — after a store miss, or to join a
// call in flight — first starts one more goroutine to take its place,
// and its own goroutine exits once it settles: no goroutine idles while
// a request is unstarted, and a batch of misses gets one goroutine per
// waiting request. All requests settle before Stream returns; the
// returned error is the first non-cancellation error in request order,
// or the first cancellation error when the whole batch was interrupted.
// Stream never writes reqs, so a caller may pass a run of a slice it
// keeps. sink may be nil.
func (r *Runner) Stream(ctx context.Context, reqs []Request, sink func(Event)) ([]*Result, error) {
	b := &batch{r: r, reqs: reqs, sink: sink, results: make([]*Result, len(reqs)), members: make([]member, len(reqs))}
	if len(reqs) > 1 {
		b.names = make(map[string]resolved) // a batch of one has no name to share
	}
	if len(reqs) == 1 {
		b.wg.Add(1)
		b.work(ctx)
	} else {
		for range min(r.workers, len(reqs)) {
			b.start(ctx)
		}
	}
	b.wg.Wait()
	var firstCanceled error
	for i := range b.members {
		err := b.members[i].err
		if err == nil {
			continue
		}
		if errors.Is(err, ErrCanceled) {
			if firstCanceled == nil {
				firstCanceled = err
			}
			continue
		}
		return b.results, err
	}
	return b.results, firstCanceled
}

// batch is one Stream call: its requests, the goroutines that take them
// in index order and settle each into results and the sink, and the
// requests as the misses among them see each other (see Runner.fill).
type batch struct {
	r       *Runner
	reqs    []Request
	sink    func(Event) // may be nil
	sinkMu  sync.Mutex  // serializes sink calls
	results []*Result
	next    atomic.Int64   // the index the next goroutine to ask takes
	wg      sync.WaitGroup // the goroutines taking requests

	mu      sync.Mutex
	names   map[string]resolved // workload name → its canonical spelling and error; nil in a batch of one
	members []member
	known   int              // members[:known] carry their class, limits and rank
	first   map[string]int   // request key → the first index with it
	byClass map[string][]int // class key → the indices with it, ascending
}

// resolved is a workload name as workloads.Resolve canonicalizes it.
type resolved struct {
	canon string // the canonical spelling; the name as given when err is set
	err   error
}

// start starts one more goroutine taking the batch's requests.
func (b *batch) start(ctx context.Context) {
	b.wg.Add(1)
	go b.work(ctx)
}

// work takes the batch's requests in index order and settles each: in
// its member, in the results and through the sink. It returns when no
// request is left, or once a request it took that left the hit path
// (batch.leave) settles.
func (b *batch) work(ctx context.Context) {
	defer b.wg.Done()
	for {
		i := int(b.next.Add(1)) - 1
		if i >= len(b.reqs) {
			return
		}
		ev := b.r.do(ctx, b, i)
		b.settle(i, ev.Res)
		m := &b.members[i]
		m.err, b.results[i] = ev.Err, ev.Res
		if b.sink != nil {
			b.sinkMu.Lock()
			b.sink(ev)
			b.sinkMu.Unlock()
		}
		if m.left {
			return
		}
	}
}

// leave takes request i off its batch's hit path before i waits: one
// more goroutine takes i's place among the batch's workers, if any
// request is unstarted, and i's own goroutine exits once i settles.
// Later calls for i do nothing.
func (b *batch) leave(ctx context.Context, i int) {
	m := &b.members[i]
	if m.left {
		return
	}
	m.left = true
	if b.next.Load() < int64(len(b.reqs)) {
		b.start(ctx)
	}
}

// canonical is the package's canonical, memoized by workload name for
// the batch's life, so a batch resolves each name it holds once. In a
// batch of one, every call resolves.
func (b *batch) canonical(req Request) (Request, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.canonicalLocked(req)
}

// canonicalLocked is canonical with b.mu held.
func (b *batch) canonicalLocked(req Request) (Request, error) {
	if b.names == nil {
		return canonical(req)
	}
	n, ok := b.names[req.Bench]
	if !ok {
		q, err := canonical(req)
		n = resolved{q.Bench, err}
		b.names[req.Bench] = n
	}
	req.Bench = n.canon
	return req, n.err
}

// member is one request of a batch. Only the request's own goroutine
// writes left and err, and Stream reads err once every goroutine is
// done; b.mu guards the rest.
type member struct {
	left bool  // the request left the hit path (batch.leave)
	err  error // once settled: the request's error

	class string
	lim   core.TrackerLimits
	rank  int // the first index with the request's key

	settled bool
	res     *Result       // once settled: its result, nil when it serves nobody here
	wake    chan struct{} // made by the first waiter, closed on settling
}

// earlier returns the class key and limits of request i and the
// indices of the requests it waits on after a miss: those of its class
// and no looser in either limit, before the first request with i's key
// (so that every request with one key waits on the same ones, whichever
// of them leads the call). Keys and classes are computed here, once per
// request and in index order, so a batch that never misses computes
// none.
func (b *batch) earlier(i int) (string, core.TrackerLimits, []int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.first == nil {
		b.first, b.byClass = make(map[string]int), make(map[string][]int)
	}
	for ; b.known <= i; b.known++ {
		j := b.known
		q, _ := b.canonicalLocked(b.reqs[j])
		key := Key(q)
		if _, ok := b.first[key]; !ok {
			b.first[key] = j
		}
		m := &b.members[j]
		m.class, m.lim = classOf(q)
		m.rank = b.first[key]
		b.byClass[m.class] = append(b.byClass[m.class], j)
	}
	me := &b.members[i]
	var idxs []int
	for _, j := range b.byClass[me.class] {
		if j >= me.rank {
			break
		}
		if b.members[j].lim.Within(me.lim) {
			idxs = append(idxs, j)
		}
	}
	return me.class, me.lim, idxs
}

// serving waits on the batch's requests at idxs in order and returns the
// first result that serves lim, or nil when none does. It fails only
// when ctx ends.
func (b *batch) serving(ctx context.Context, idxs []int, lim core.TrackerLimits) (*Result, error) {
	for _, j := range idxs {
		b.mu.Lock()
		m := &b.members[j]
		if !m.settled {
			if m.wake == nil {
				m.wake = make(chan struct{})
			}
			wake := m.wake
			b.mu.Unlock()
			select {
			case <-wake:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			b.mu.Lock()
		}
		res, from := m.res, m.lim
		b.mu.Unlock()
		if res != nil && from.Serves(lim, &res.Tracker) {
			return res, nil
		}
	}
	return nil, nil
}

// settle records request i's outcome, the first time only: its result,
// or nil when it serves nobody in the batch. It wakes i's waiters.
func (b *batch) settle(i int, res *Result) {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := &b.members[i]
	if m.settled {
		return
	}
	m.settled, m.res = true, res
	if m.wake != nil {
		close(m.wake)
	}
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
