// Package regshare is the public API of the reproduction of "Cost
// Effective Physical Register Sharing" (Perais & Seznec, HPCA 2016).
//
// It exposes the cycle-level out-of-order core of Table 1, the paper's two
// register-sharing optimizations (Move Elimination and Speculative Memory
// Bypassing), the reference-counting schemes of §4 (ISRB, ideal counters,
// per-register counters, MIT, RDA), and the 36 synthetic SPEC-analogue
// workloads used by every experiment.
//
// Quick start:
//
//	cfg := regshare.Combined(24) // ME + SMB over a 24-entry ISRB
//	res, err := regshare.RunContext(ctx, regshare.RunSpec{
//		Benchmark: "crafty",
//		Config:    cfg,
//		Warmup:    50_000,
//		Measure:   200_000,
//	})
//	fmt.Println(res.Stats.IPC())
//
// The API is context-first: RunContext aborts mid-simulation when ctx
// is canceled, StreamSpecs fans a batch out and delivers per-spec
// completion events as workers finish, and errors wrap the typed
// taxonomy (ErrUnknownBenchmark, ErrBadConfig, ErrCanceled,
// ErrSimFault). Run is a convenience shim over RunContext with a
// background context.
package regshare

import (
	"context"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/smb"
	"repro/internal/workloads"
)

// Config aliases the core machine configuration (Table 1).
type Config = core.Config

// Stats aliases the per-run statistics.
type Stats = core.Stats

// DefaultWarmup and DefaultMeasure are the run lengths used by the
// experiment harness: the paper simulates 50M warmup + 100M measured
// instructions; the synthetic workloads reach steady state far sooner, so
// the harness uses proportionally smaller regions.
const (
	DefaultWarmup  = 50_000
	DefaultMeasure = 200_000
)

// Baseline returns the Figure 4 baseline: Table 1, no sharing.
func Baseline() Config { return core.DefaultConfig() }

// WithME enables Move Elimination over an ISRB with the given entry count
// (entries <= 0 selects the unlimited ideal tracker), as in Figure 5.
func WithME(entries int) Config {
	cfg := core.DefaultConfig()
	cfg.ME.Enabled = true
	applyTracker(&cfg, entries)
	return cfg
}

// WithSMB enables Speculative Memory Bypassing (store-load + load-load,
// TAGE-like distance predictor, unlimited DDT) over an ISRB with the given
// entry count (<= 0: unlimited tracker), as in Figure 6a.
func WithSMB(entries int) Config {
	cfg := core.DefaultConfig()
	cfg.SMB.Enabled = true
	applyTracker(&cfg, entries)
	return cfg
}

// Combined enables both ME and SMB (Figure 7).
func Combined(entries int) Config {
	cfg := core.DefaultConfig()
	cfg.ME.Enabled = true
	cfg.SMB.Enabled = true
	applyTracker(&cfg, entries)
	return cfg
}

func applyTracker(cfg *Config, entries int) {
	if entries <= 0 {
		cfg.Tracker = core.TrackerConfig{Kind: core.TrackerUnlimited}
		return
	}
	cfg.Tracker = core.TrackerConfig{Kind: core.TrackerISRB, Entries: entries, CounterBits: 3}
}

// UseNoSQPredictor switches SMB to the NoSQ-style two-table distance
// predictor (§3.1's baseline).
func UseNoSQPredictor(cfg Config) Config {
	cfg.SMB.Predictor = core.DistanceNoSQ
	return cfg
}

// UseRealisticDDT switches the DDT from the unlimited modelling device to
// the paper's 1K-entry, 5-bit-tag table (§3.1).
func UseRealisticDDT(cfg Config) Config {
	cfg.SMB.DDT = smb.DDTConfig{Entries: 1024, TagBits: 5}
	return cfg
}

// UseLargeDDT selects the paper's 16K-entry, 14-bit-tag design point.
func UseLargeDDT(cfg Config) Config {
	cfg.SMB.DDT = smb.DDTConfig{Entries: 16384, TagBits: 14}
	return cfg
}

// StoreOnly disables load-load bypassing (the §6.2 ablation).
func StoreOnly(cfg Config) Config {
	cfg.SMB.LoadLoad = false
	return cfg
}

// WithLazyReclaim enables bypassing from committed instructions with lazy
// register reclaiming (§3.3 / Figure 6c).
func WithLazyReclaim(cfg Config) Config {
	cfg.SMB.BypassCommitted = true
	return cfg
}

// The typed error taxonomy of the execution API (see internal/sim):
// every error Run/RunContext/StreamSpecs returns wraps exactly one of
// these sentinels, testable with errors.Is. Cancellation errors also
// wrap the context's own cause (context.Canceled or
// context.DeadlineExceeded).
var (
	// ErrUnknownBenchmark: the spec names a benchmark outside the catalog.
	ErrUnknownBenchmark = sim.ErrUnknownBenchmark
	// ErrBadConfig: the machine configuration or run lengths cannot be
	// simulated.
	ErrBadConfig = sim.ErrBadConfig
	// ErrCanceled: the run was interrupted by its context.
	ErrCanceled = sim.ErrCanceled
	// ErrSimFault: the simulator faulted on a configuration that passed
	// validation; retrying the same spec faults again.
	ErrSimFault = sim.ErrSimFault
)

// Event is one per-spec completion notification from StreamSpecs (see
// sim.Event): the spec's index and key, its result or typed error, and
// its provenance. The spec itself is specs[ev.Index].
type Event = sim.Event

// RunSpec names one simulation.
type RunSpec struct {
	Benchmark string
	Config    Config
	Warmup    uint64
	Measure   uint64
}

// request normalizes the spec (default run lengths) into the shared
// runner's request form.
func (spec RunSpec) request() sim.Request {
	if spec.Warmup == 0 {
		spec.Warmup = DefaultWarmup
	}
	if spec.Measure == 0 {
		spec.Measure = DefaultMeasure
	}
	return sim.Request{
		Bench:   spec.Benchmark,
		Config:  spec.Config,
		Warmup:  spec.Warmup,
		Measure: spec.Measure,
	}
}

// Result is the outcome of one simulation.
type Result struct {
	Benchmark string
	Stats     *Stats
	// Detail carries the full result record (tracker, move-elimination
	// and memory-hierarchy statistics) from the shared runner.
	Detail *sim.Result
}

// runner is the process-wide simulation runner behind Run: deterministic
// simulations are deduplicated and cached, so repeated calls with the
// same RunSpec — e.g. benchmark iterations — simulate once.
var runner = sim.New()

// RunContext simulates the named benchmark through the shared
// process-wide runner. Results are memoized for the process lifetime
// (the simulator is deterministic, so they never go stale); sweeps over
// very many distinct RunSpecs accumulate one cached Result each.
// Canceling ctx aborts the simulation mid-cycle-loop; the error then
// wraps ErrCanceled and the context's cause, and nothing partial is
// cached. The returned Detail record is shared with the cache and must
// not be mutated; Stats is the caller's own copy.
func RunContext(ctx context.Context, spec RunSpec) (*Result, error) {
	r, err := runner.Run(ctx, spec.request())
	if err != nil {
		return nil, err
	}
	return wrapResult(spec.Benchmark, r), nil
}

// Run is RunContext with a background context — the non-cancelable
// convenience shim for short interactive runs.
func Run(spec RunSpec) (*Result, error) {
	return RunContext(context.Background(), spec)
}

// StreamSpecs fans the specs out over the shared runner's worker pool
// and invokes sink (may be nil; calls are serialized) with a completion
// event as each spec settles — Event.Index is the spec's position in
// specs. Results come back in spec order, nil where a spec failed; the
// returned error is the first typed error after all specs settle.
// Identical specs — and specs another concurrent caller is already
// running — are deduplicated through the runner's singleflight.
func StreamSpecs(ctx context.Context, specs []RunSpec, sink func(Event)) ([]*Result, error) {
	reqs := make([]sim.Request, len(specs))
	for i, spec := range specs {
		reqs[i] = spec.request()
	}
	raw, err := runner.Stream(ctx, reqs, sink)
	results := make([]*Result, len(specs))
	for i, r := range raw {
		if r != nil {
			results[i] = wrapResult(specs[i].Benchmark, r)
		}
	}
	return results, err
}

// wrapResult packages a shared runner record into the public Result
// form (Stats is the caller's own copy).
func wrapResult(bench string, r *sim.Result) *Result {
	st := r.S // copy: the cached record is shared
	return &Result{Benchmark: bench, Stats: &st, Detail: r}
}

// MustRun is Run for harness code where a config error is a bug. It
// panics with the typed error value.
func MustRun(spec RunSpec) *Result {
	r, err := Run(spec)
	if err != nil {
		panic(err)
	}
	return r
}

// Benchmarks lists the 36 workload names (integer suite first).
func Benchmarks() []string { return memberNames("all") }

// IntBenchmarks lists the integer suite.
func IntBenchmarks() []string { return memberNames("int") }

// FPBenchmarks lists the floating-point suite.
func FPBenchmarks() []string { return memberNames("fp") }

// memberNames projects a workload group onto a fresh name slice, so the
// public API never hands out the memoized tables for mutation.
func memberNames(group string) []string {
	members, _ := workloads.Members(group)
	names := make([]string, len(members))
	for i, m := range members {
		names[i] = m.Name
	}
	return names
}
