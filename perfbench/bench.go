package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/objstore"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// gridSpec is the benchmark's own grid: a fleet-grid slice covering all
// four gen: families and all five reference-counting schemes.
//
//go:embed grid.scenario
var gridSpec []byte

// goldenJSON pins the results digests of the committed grid and of the
// default seed.
//
//go:embed golden.json
var goldenJSON []byte

// golden holds the committed digests: the grid as committed (program
// draw 0) and the default seed's draw at the spec's own run lengths
// (grid-cold), and the default seed's draw at the short ones (grid-warm,
// serve-warm).
type golden struct {
	Seed      uint64 `json:"seed"`
	Committed string `json:"committed"`
	Cold      string `json:"cold"`
	Short     string `json:"short"`
}

// The short run lengths the warm workloads fill and re-read: long enough
// to exercise every structure, short enough that the fill stays a few
// seconds, dominated by per-request program construction.
const (
	shortWarmup  = 2000
	shortMeasure = 8000
)

// coldSeeds lists the program draws grid-cold drains, one cold drain
// each: the grid as committed (seed 0: the programs fleet-grid itself
// runs, the same in every run) and the grid with the run's seed. Each
// gen: program is one random draw of its shape, and the draw moves a
// request's cost a lot: over 12 seeds the simulated cycles of
// gen:chase?nodes=262144, the grid's most expensive shape, ranged from
// 0.56M to 1.86M, and a seeded drain took from 0.77 to 1.26 times as
// long as a committed one. The committed drain halves that spread; the
// seeded one gives a claim programs unseen while it was written. A
// third drain would cut the spread further but, on a host running at
// half speed, push the benchmark's full schedule past its time limit.
// The traced run drains the seeded grid alone, in each of its two
// phases, for the same reason.
func (b *bench) coldSeeds() []uint64 {
	if b.traceRun {
		return []uint64{b.seed}
	}
	return []uint64{0, b.seed}
}

// Work per -seconds for the warm workloads, calibrated on the reference
// host (2 CPUs). The work of a run is a fixed function of -seconds,
// never of the clock.
const (
	warmPassesPerSecond = 100  // grid-warm re-drains of the filled grid
	serveCallsPerSecond = 8000 // serve-warm POST /v1/run calls
)

// How many times a run sets its workload up from nothing; setup_s is the
// median, so one round slowed by the host moves it less than a single
// measurement would. A cold set-up is a few milliseconds of expansion
// and directory creation, so it takes many rounds; a warm one fills a
// store, some six seconds.
const (
	coldSetupRounds = 15
	warmSetupRounds = 3
)

// tracedShare divides the warm workloads' timed work in a traced run:
// per-layer means need far fewer samples than the untraced rates and
// latency tails, and spans of the full work would run to a million.
const tracedShare = 10

// serveSegments splits the serve-warm loop into separately rated parts.
const serveSegments = 400

// drainHost names the benchmark's one fleet host in lease claims.
const drainHost = "perfbench"

// workload is one named benchmark workload. run returns one outcome per
// phase: the untraced phase, then (in a traced run) the traced one.
type workload struct {
	name string
	run  func(b *bench) ([]*outcome, error)
}

var workloadList = []workload{
	{"grid-cold", (*bench).gridCold},
	{"grid-warm", (*bench).gridWarm},
	{"serve-warm", (*bench).serveWarm},
}

func workloadNames() []string {
	names := make([]string, len(workloadList))
	for i, w := range workloadList {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench carries one run's settings and, in the traced phase, the
// instruments the layers are wrapped with.
type bench struct {
	spec    []byte  // the grid spec: gridSpec, or a small one in tests
	gold    *golden // the spec's committed digests; nil for other specs
	seed    uint64
	seconds int
	nproc   int
	dir     string // this run's scratch directory, removed at exit
	log     io.Writer

	traceRun bool    // run the traced phase after the untraced one
	lay      *layers // the traced phase's instruments; nil while untraced
	expandNS int64   // Spec.Expand time of the latest set-up round
	seq      int     // names fresh store and lease directories
}

// phases lists the phases to run: untraced, then traced in a traced run.
func (b *bench) phases() []bool {
	if b.traceRun {
		return []bool{false, true}
	}
	return []bool{false}
}

// work scales a warm workload's timed work down in a traced run.
func (b *bench) work(n int) int {
	if b.traceRun {
		n /= tracedShare
	}
	return max(1, n)
}

// outcome is what one phase delivered.
type outcome struct {
	setup     time.Duration   // median over the set-up rounds
	elapsed   time.Duration   // the timed region
	results   int             // results delivered in the timed region
	rates     []float64       // results per second of each drain, pass or call segment
	lat       []time.Duration // one per delivered unit: a drain, a pass or a call
	attempted int
	failed    int
	digests   []digestCheck

	rt   goStats         // runtime deltas over the timed region
	ctr  sim.Counters    // runner counters over the timed region
	lay  *layerSnapshot  // traced phase only
	disp *dispatchTiming // traced serve-warm only
}

// goStats are Go runtime deltas over a timed region.
type goStats struct {
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64
}

func readGo() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	g := goStats{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	return g
}

func (g goStats) since(from goStats) goStats {
	return goStats{g.allocBytes - from.allocBytes, g.gcCycles - from.gcCycles, g.gcCPU - from.gcCPU}
}

func (g goStats) plus(o goStats) goStats {
	return goStats{g.allocBytes + o.allocBytes, g.gcCycles + o.gcCycles, g.gcCPU + o.gcCPU}
}

// digestCheck is the digest of one set of delivered results and the
// golden it must equal, "" when none is committed for its draw.
type digestCheck struct {
	what           string // the results digested, for the log
	seed           uint64 // their program draw
	digest, golden string
}

// setUp runs round the given number of times, each building the
// workload's state from nothing, and returns the median round time.
// Between rounds, untimed, teardown releases the previous round's state
// and its garbage is collected.
func (b *bench) setUp(rounds int, teardown, round func() error) (time.Duration, error) {
	secs := make([]float64, 0, rounds)
	for i := range rounds {
		if i > 0 {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
		runtime.GC()
		start := time.Now()
		if err := round(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	med := median(secs)
	fmt.Fprintf(b.log, "set-up: median %.4f s over %d rounds\n", med, rounds)
	return time.Duration(med * float64(time.Second)), nil
}

// loadSpec parses a grid spec and appends seed=N to every gen: workload
// name, so the seed selects new program instances of the same shapes.
func loadSpec(data []byte, seed uint64) (*scenario.Spec, error) {
	s, err := scenario.ParseBytes(data)
	if err != nil {
		return nil, err
	}
	for i := range s.Benchmarks {
		s.Benchmarks[i] = withSeed(s.Benchmarks[i], seed)
	}
	for _, a := range s.WorkloadAxes {
		for _, v := range a.Values {
			for i := range v.Benchmarks {
				v.Benchmarks[i] = withSeed(v.Benchmarks[i], seed)
			}
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// withSeed appends the seed parameter to a gen: name. The generators
// accept seeds below 2^32, so larger values wrap.
func withSeed(name string, seed uint64) string {
	if !strings.HasPrefix(name, "gen:") {
		return name
	}
	sep := "?"
	if strings.Contains(name, "?") {
		sep = "&"
	}
	return fmt.Sprintf("%s%sseed=%d", name, sep, seed%(1<<32))
}

// expand loads the spec at one seed and expands it at the spec's own run
// lengths (cold) or the short ones, adding the Spec.Expand time to
// expandNS. In the traced phase it maps the grid's store entries to
// their request keys for the spans.
func (b *bench) expand(seed uint64, cold bool) (*scenario.Matrix, error) {
	s, err := loadSpec(b.spec, seed)
	if err != nil {
		return nil, err
	}
	var ov scenario.Overrides
	if !cold {
		w, m := uint64(shortWarmup), uint64(shortMeasure)
		ov = scenario.Overrides{Warmup: &w, Measure: &m}
	}
	start := time.Now()
	mat, err := s.Expand(ov)
	b.expandNS += int64(time.Since(start))
	if err != nil {
		return nil, err
	}
	if b.lay != nil {
		b.lay.register(mat)
	}
	return mat, nil
}

// logGrid prints the shape of the grid a workload runs.
func (b *bench) logGrid(m *scenario.Matrix, draws int) {
	fmt.Fprintf(b.log, "grid: %d cells, %d unique requests, run lengths %d+%d, %d program draw(s)\n",
		len(m.Cells), len(m.Requests), m.Warmup, m.Measure, draws)
}

// loadGolden parses the committed digests.
func loadGolden() (*golden, error) {
	g := new(golden)
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// goldenFor returns the committed digest of one program draw at the
// spec's own run lengths (cold) or the short ones, "" when none is
// committed for that draw or the run has no goldens.
func (b *bench) goldenFor(seed uint64, cold bool) string {
	switch g := b.gold; {
	case g == nil:
		return ""
	case cold && seed == 0:
		return g.Committed
	case seed != g.Seed:
		return ""
	case cold:
		return g.Cold
	default:
		return g.Short
	}
}

// freshSpec returns the fs: spec of a new directory under the run's
// scratch directory.
func (b *bench) freshSpec(kind string) string {
	b.seq++
	return "fs:" + filepath.Join(b.dir, fmt.Sprintf("%s-%04d", kind, b.seq))
}

// openStore opens the result store: the stock constructor when
// untraced, a timing backend under sim.NewStoreWith when traced.
func (b *bench) openStore(spec string) (*sim.Store, error) {
	if b.lay == nil {
		return sim.OpenStore(spec)
	}
	be, err := objstore.New(spec)
	if err != nil {
		return nil, err
	}
	return sim.NewStoreWith(&timedBackend{Backend: be, t: b.lay.tr, kind: "store", ids: b.lay.ids, ops: &b.lay.store}), nil
}

// openLeases opens a fleet lease area, timed when traced.
func (b *bench) openLeases(spec string) (objstore.Backend, error) {
	be, err := objstore.New(spec)
	if err != nil || b.lay == nil {
		return be, err
	}
	return &timedBackend{Backend: be, t: b.lay.tr, kind: "lease", ops: &b.lay.lease}, nil
}

// newRunner builds a runner nproc wide over store, with the traced
// executor when traced.
func (b *bench) newRunner(store *sim.Store) *sim.Runner {
	opts := []sim.Option{sim.WithStore(store), sim.WithWorkers(b.nproc)}
	if b.lay != nil {
		opts = append(opts, sim.WithExecutor(executor(b.lay.tr, &b.lay.exec)))
	}
	return sim.New(opts...)
}

// drain runs one fleet.Drain with the default fleet.Config. Traced, it
// first times a separate fleet.GridID call and records the drain span.
func (b *bench) drain(ctx context.Context, m *scenario.Matrix, runner *sim.Runner, leases objstore.Backend) (*fleet.Summary, error) {
	if b.lay == nil {
		return fleet.Drain(ctx, m, runner, leases, fleet.Config{Host: drainHost})
	}
	start := time.Now()
	fleet.GridID(m, 64) // fleet.Config's default shard size
	b.lay.gridIDNS += int64(time.Since(start))
	closeSpan := b.lay.tr.open("drain")
	sum, err := fleet.Drain(ctx, m, runner, leases, fleet.Config{Host: drainHost})
	b.lay.drainNS += int64(closeSpan())
	if sum != nil {
		b.lay.takeovers += sum.TakenOver
	}
	return sum, err
}

// manifest computes the store's Merkle manifest, timed when traced.
func (b *bench) manifest(ctx context.Context, store *sim.Store) (*sim.Manifest, error) {
	if b.lay == nil {
		return store.Manifest(ctx)
	}
	closeSpan := b.lay.tr.open("manifest")
	man, err := store.Manifest(ctx)
	b.lay.manifestNS += int64(closeSpan())
	return man, err
}

// trace starts the traced phase with fresh instruments.
func (b *bench) trace() {
	b.lay = &layers{tr: newTracer(), ids: make(map[string]string)}
}

// collect fetches every request's result from runner — each one a
// memory hit once the drain has delivered it — keyed by its sim.Key
// (keys[i] for m.Requests[i]), and counts the requests that have none.
func collect(ctx context.Context, runner *sim.Runner, m *scenario.Matrix, keys []string) (map[string]*sim.Result, int) {
	got := make(map[string]*sim.Result, len(m.Requests))
	missing := 0
	for i, req := range m.Requests {
		res, err := runner.Run(ctx, req)
		if err != nil || res == nil {
			missing++
			continue
		}
		got[keys[i]] = res
	}
	return got, missing
}

// requestKeys returns the sim.Key of every request of m.
func requestKeys(m *scenario.Matrix) []string {
	keys := make([]string, len(m.Requests))
	for i, req := range m.Requests {
		keys[i] = sim.Key(req)
	}
	return keys
}

// coldDrain is one cold drain's set-up: the grid at one program draw,
// an empty fs: store, the lease area fleet.LeaseSpec derives from it,
// and a runner over the store.
type coldDrain struct {
	seed      uint64
	m         *scenario.Matrix
	keys      []string
	storeSpec string
	store     *sim.Store
	leases    objstore.Backend
	runner    *sim.Runner
}

// coldSetup expands the grid at every program draw of the run and opens
// an empty store, its lease area and a runner for each.
func (b *bench) coldSetup() ([]coldDrain, error) {
	b.expandNS = 0
	var ds []coldDrain
	for _, seed := range b.coldSeeds() {
		m, err := b.expand(seed, true)
		if err != nil {
			return nil, err
		}
		storeSpec := b.freshSpec("store")
		store, err := b.openStore(storeSpec)
		if err != nil {
			return nil, err
		}
		leaseSpec, err := fleet.LeaseSpec(storeSpec)
		if err != nil {
			return nil, err
		}
		leases, err := b.openLeases(leaseSpec)
		if err != nil {
			return nil, err
		}
		ds = append(ds, coldDrain{seed, m, requestKeys(m), storeSpec, store, leases, b.newRunner(store)})
	}
	return ds, nil
}

// closeDrains releases the stores and lease areas of a cold set-up.
func closeDrains(ds []coldDrain) error {
	for _, d := range ds {
		if err := d.leases.Close(); err != nil {
			return err
		}
		if err := d.store.Close(); err != nil {
			return err
		}
	}
	return nil
}

// gridCold drains the committed grid from empty stores, once per program
// draw, and computes each store's manifest. The timed region is the
// drains plus the manifests.
func (b *bench) gridCold() ([]*outcome, error) {
	ctx := context.Background()
	var outs []*outcome
	for _, traced := range b.phases() {
		if traced {
			b.trace()
		}
		o := &outcome{}
		var drains []coldDrain
		var err error
		o.setup, err = b.setUp(coldSetupRounds,
			func() error { return closeDrains(drains) },
			func() (err error) {
				drains, err = b.coldSetup()
				return err
			})
		if err != nil {
			return nil, err
		}
		b.logGrid(drains[0].m, len(drains))
		for i, d := range drains {
			// Collect the garbage of set-up and of the previous drain's
			// checks outside the timed region.
			runtime.GC()
			g0 := readGo()
			start := time.Now()
			sum, drainErr := b.drain(ctx, d.m, d.runner, d.leases)
			if drainErr == nil {
				_, drainErr = b.manifest(ctx, d.store)
			}
			el := time.Since(start)
			fmt.Fprintf(b.log, "cold drain %d (seed %d): %.3f s\n", i, d.seed, el.Seconds())
			o.rt = o.rt.plus(readGo().since(g0))
			o.ctr = addCounters(o.ctr, d.runner.Counters())
			o.elapsed += el
			o.attempted += len(d.m.Requests)
			if drainErr != nil {
				fmt.Fprintf(b.log, "drain failed: %v\n", drainErr)
				o.failed += len(d.m.Requests)
				continue
			}
			o.results += len(d.m.Requests)
			got, missing := collect(ctx, d.runner, d.m, d.keys)
			o.failed += sum.TakenOver + missing + checkStored(ctx, d.storeSpec, d.m, d.keys, got)
			o.digests = append(o.digests, digestCheck{fmt.Sprintf("cold drain %d", i), d.seed, digest(got), b.goldenFor(d.seed, true)})
		}
		// The draws differ in cost by design, so they are not rated
		// apart: the run's cold work is one delivered unit.
		o.rates = []float64{float64(o.results) / o.elapsed.Seconds()}
		o.lat = []time.Duration{o.elapsed}
		if traced {
			last := drains[len(drains)-1]
			o.lay = b.lay.snapshot()
			b.probe(ctx, last.m, last.store, o.lay)
		}
		if err := closeDrains(drains); err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// checkStored re-reads every result through a fresh stock store over
// the same directory and counts those that differ from what the runner
// delivered, are missing from the store, or fail the run-length
// invariants.
func checkStored(ctx context.Context, storeSpec string, m *scenario.Matrix, keys []string, got map[string]*sim.Result) int {
	store, err := sim.OpenStore(storeSpec)
	if err != nil {
		return len(got)
	}
	defer store.Close()
	bad := 0
	for i, req := range m.Requests {
		key := keys[i]
		res, ok := got[key]
		if !ok {
			continue // already counted as missing
		}
		stored, ok := store.Load(ctx, key)
		if !ok || *stored != *res || res.S.Committed < req.Measure || res.S.Cycles == 0 {
			bad++
		}
	}
	return bad
}

// warmState is the warm workloads' set-up: the short grid, a stock
// fs: store one drain filled with it, and the delivered results keyed by
// sim.Key, the reference every later result is compared with.
type warmState struct {
	m         *scenario.Matrix
	keys      []string
	storeSpec string
	store     *sim.Store
	refs      map[string]*sim.Result
}

// warmSetup expands the grid at the short run lengths and fills a fresh
// store with one stock drain, checked like a cold drain. Its operations
// and digest go to o; a fill whose digest differs from an earlier
// round's counts every request as failed.
func (b *bench) warmSetup(ctx context.Context, o *outcome) (*warmState, error) {
	b.expandNS = 0
	m, err := b.expand(b.seed, false)
	if err != nil {
		return nil, err
	}
	w := &warmState{m: m, keys: requestKeys(m), storeSpec: b.freshSpec("store")}
	if w.store, err = sim.OpenStore(w.storeSpec); err != nil {
		return nil, err
	}
	// An in-memory lease area, as for the grid-warm passes: fs: claim
	// Puts would make set-up time follow the disk's writeback state.
	leases, err := objstore.New("mem:")
	if err != nil {
		return nil, err
	}
	defer leases.Close()
	runner := sim.New(sim.WithStore(w.store), sim.WithWorkers(b.nproc))
	sum, err := fleet.Drain(ctx, m, runner, leases, fleet.Config{Host: drainHost})
	if err != nil {
		return nil, fmt.Errorf("filling the store: %w", err)
	}
	refs, missing := collect(ctx, runner, m, w.keys)
	w.refs = refs
	o.attempted += len(m.Requests)
	o.failed += sum.TakenOver + missing + checkStored(ctx, w.storeSpec, m, w.keys, refs)
	d := digest(refs)
	if len(o.digests) > 0 && d != o.digests[0].digest {
		o.failed += len(m.Requests)
	}
	o.digests = []digestCheck{{"short fill", b.seed, d, b.goldenFor(b.seed, false)}}
	return w, nil
}

// gridWarm sets up by filling a store at the short run lengths, then
// re-drains the grid for a fixed number of passes, each with a fresh
// runner and a fresh lease area, so every request is a store hit. Every
// pass is rated and its results checked on its own.
func (b *bench) gridWarm() ([]*outcome, error) {
	ctx := context.Background()
	fill := &outcome{}
	var w *warmState
	setup, err := b.setUp(warmSetupRounds,
		func() error { return w.store.Close() },
		func() (err error) {
			w, err = b.warmSetup(ctx, fill)
			return err
		})
	if err != nil {
		return nil, err
	}
	defer w.store.Close()
	b.logGrid(w.m, 1)
	passes := b.work(b.seconds * warmPassesPerSecond)
	var outs []*outcome
	for _, traced := range b.phases() {
		o := &outcome{setup: setup, digests: fill.digests}
		store := w.store
		if traced {
			b.trace()
			b.lay.register(w.m)
			if store, err = b.openStore(w.storeSpec); err != nil {
				return nil, err
			}
		} else {
			o.attempted, o.failed = fill.attempted, fill.failed
		}
		runtime.GC()
		for range passes {
			var g0 goStats
			if b.traceRun {
				g0 = readGo()
			}
			start := time.Now()
			runner := b.newRunner(store)
			// An in-memory lease area, not fs:. On the reference host each
			// fs: claim Put is a rename over the old claim, whose forced
			// writeback made pass times follow the VM disk's state (27 ms
			// to 105 ms per pass over five back-to-back runs). The claim
			// protocol above the backend is the same code either way.
			leases, err := b.openLeases("mem:")
			if err != nil {
				return nil, err
			}
			sum, drainErr := b.drain(ctx, w.m, runner, leases)
			el := time.Since(start)
			if b.traceRun {
				o.rt = o.rt.plus(readGo().since(g0))
			}
			o.elapsed += el
			o.lat = append(o.lat, el)
			o.attempted += len(w.m.Requests)
			if err := leases.Close(); err != nil {
				return nil, err
			}
			o.ctr = addCounters(o.ctr, runner.Counters())
			if drainErr != nil {
				fmt.Fprintf(b.log, "pass failed: %v\n", drainErr)
				o.failed += len(w.m.Requests)
				continue
			}
			// A request that is not a store hit was re-simulated: the
			// bucket lost it.
			o.failed += sum.TakenOver + (len(w.m.Requests) - sum.StoreHits)
			got, missing := collect(ctx, runner, w.m, w.keys)
			o.failed += missing + mismatches(got, w.refs)
			o.results += len(got)
			o.rates = append(o.rates, float64(len(got))/el.Seconds())
		}
		if traced {
			o.lay = b.lay.snapshot()
			b.probe(ctx, w.m, store, o.lay)
			if err := store.Close(); err != nil {
				return nil, err
			}
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// mismatches counts delivered results that differ from the reference.
func mismatches(got, refs map[string]*sim.Result) int {
	n := 0
	for key, res := range got {
		if ref, ok := refs[key]; !ok || *res != *ref {
			n++
		}
	}
	return n
}

// addCounters sums runner counters.
func addCounters(a, b sim.Counters) sim.Counters {
	return sim.Counters{Simulated: a.Simulated + b.Simulated, MemHits: a.MemHits + b.MemHits, DiskHits: a.DiskHits + b.DiskHits}
}
