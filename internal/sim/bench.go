package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// This file is the performance-tracking half of the runner: a pinned
// workload set, a wall-clock harness measuring simulated cycles per
// second, and the BENCH_*.json report every PR appends to so the
// simulator's raw speed has a recorded trajectory (ROADMAP: "as fast as
// the hardware allows").

// BenchSchema tags the report layout; bump it when BenchReport changes
// incompatibly.
const BenchSchema = "bench-1"

// BenchPoint names one pinned measurement: a benchmark from the catalog
// simulated under one tracker scheme with the full optimization stack
// (ME + SMB + lazy reclaim) enabled, so the measurement exercises the
// rename/issue/writeback/commit hot path and the reference-counting
// machinery together.
type BenchPoint struct {
	Bench   string
	Tracker core.TrackerKind
	Warmup  uint64
	Measure uint64
}

// BenchResult is one executed BenchPoint. Warmup and Measure echo the
// point's run lengths so a report is self-describing: the matched-point
// baseline comparison refuses to match points that ran different
// lengths (older reports predate the fields — omitempty keeps them
// loadable, and matching then falls back to benchmark+tracker).
//
//repro:wire
type BenchResult struct {
	Bench        string  `json:"bench"`
	Tracker      string  `json:"tracker"`
	Warmup       uint64  `json:"warmup,omitempty"`
	Measure      uint64  `json:"measure,omitempty"`
	Cycles       uint64  `json:"cycles"`
	Committed    uint64  `json:"committed"`
	IPC          float64 `json:"ipc"`
	WallNS       int64   `json:"wall_ns"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

// BenchBaseline is an earlier report's aggregate, embedded so a report
// is self-contained evidence of a speedup (or regression).
//
//repro:wire
type BenchBaseline struct {
	Label        string  `json:"label"`
	GMeanCPS     float64 `json:"gmean_cycles_per_sec"`
	TotalWallNS  int64   `json:"total_wall_ns"`
	GMeanWallNS  float64 `json:"gmean_wall_ns"`
	SchemaOfFile string  `json:"schema,omitempty"`
	// MatchedPoints counts the points shared by both reports — same
	// benchmark and tracker; the pinned sets key points uniquely, and
	// the quick set is an exact subset of the full set, so matched
	// points ran identical lengths — and MatchedGMeanCPS is the
	// baseline's gmean over just those. They make a -quick run
	// comparable against a full-set baseline: the whole-report gmeans
	// aggregate different point sets, the matched gmeans do not.
	MatchedPoints   int     `json:"matched_points,omitempty"`
	MatchedGMeanCPS float64 `json:"matched_gmean_cycles_per_sec,omitempty"`
}

// BenchReport is the full BENCH_*.json payload.
//
//repro:wire
type BenchReport struct {
	Schema string `json:"schema"`
	Label  string `json:"label,omitempty"`
	// Backend names the execution backend the points ran through when it
	// was not the default in-process path ("http://..."), so a report
	// measuring network overhead is never mistaken for a simulator-speed
	// data point.
	Backend     string        `json:"backend,omitempty"`
	GoVersion   string        `json:"go_version"`
	GOARCH      string        `json:"goarch"`
	NumCPU      int           `json:"num_cpu"`
	Quick       bool          `json:"quick"`
	Points      []BenchResult `json:"points"`
	TotalWallNS int64         `json:"total_wall_ns"`
	// GMeanWallNS is the geometric mean of per-point wall times.
	GMeanWallNS float64 `json:"gmean_wall_ns"`
	// GMeanCPS is the geometric mean of per-point simulated cycles/sec —
	// the headline number the acceptance criteria track.
	GMeanCPS float64 `json:"gmean_cycles_per_sec"`

	Baseline *BenchBaseline `json:"baseline,omitempty"`
	// SpeedupVsBaseline is GMeanCPS / Baseline.GMeanCPS when a baseline
	// is embedded.
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
	// SpeedupVsBaselineMatched compares gmeans over the matched points
	// only (see BenchBaseline.MatchedPoints); zero when the reports
	// share no points. This is the number the CI regression gate
	// thresholds: it stays meaningful when this run is the -quick
	// subset and the baseline a full-set BENCH_*.json.
	SpeedupVsBaselineMatched float64 `json:"speedup_vs_baseline_matched,omitempty"`
}

// benchConfig is the pinned machine configuration: Table 1 with the full
// optimization stack on, parameterized by tracker scheme only. Pinning it
// here (rather than taking a Config) keeps every PR's BENCH_*.json
// comparable.
func benchConfig(kind core.TrackerKind) core.Config {
	cfg := core.DefaultConfig()
	cfg.ME.Enabled = true
	cfg.SMB.Enabled = true
	cfg.SMB.BypassCommitted = true
	cfg.Tracker.Kind = kind
	return cfg
}

// BenchPoints returns the pinned workload set. quick selects the 3-point
// smoke subset CI runs on every push; the full set covers integer and FP
// benchmarks with diverse bottlenecks (move-rich, trap-rich, pointer
// chasing, streaming) under both the ISRB and the unlimited tracker.
func BenchPoints(quick bool) []BenchPoint {
	// The quick points are an exact subset of the full set — same
	// benchmarks, tracker and run lengths — so a quick run's per-point
	// cycles/sec is directly comparable against a full BENCH_*.json
	// baseline (the matched-point comparison the CI gate relies on).
	if quick {
		return []BenchPoint{
			{Bench: "gzip", Tracker: core.TrackerISRB, Warmup: 50_000, Measure: 300_000},
			{Bench: "crafty", Tracker: core.TrackerISRB, Warmup: 50_000, Measure: 300_000},
			{Bench: "wupwise", Tracker: core.TrackerISRB, Warmup: 50_000, Measure: 300_000},
		}
	}
	benches := []string{"gzip", "crafty", "hmmer", "mcf", "astar", "wupwise", "swim", "namd"}
	var pts []BenchPoint
	for _, b := range benches {
		for _, k := range []core.TrackerKind{core.TrackerISRB, core.TrackerUnlimited} {
			pts = append(pts, BenchPoint{Bench: b, Tracker: k, Warmup: 50_000, Measure: 300_000})
		}
	}
	return pts
}

// RunBench executes the pinned points sequentially on one goroutine (the
// measurement is wall-clock, so the harness must not share the machine
// with its own sibling runs) and aggregates the report. Canceling ctx
// aborts the current point mid-simulation and returns a typed
// ErrCanceled wrap. progress may be nil; otherwise it is invoked after
// each point.
func RunBench(ctx context.Context, points []BenchPoint, quick bool, progress func(BenchResult)) (*BenchReport, error) {
	return runBench(ctx, points, quick, directPoint, progress)
}

// RunBenchVia runs the pinned points through exec — a dispatch backend's
// Execute — timing the wall clock around each call, so the report
// measures the backend's delivered throughput: subprocess framing for a
// worker pool, the network round-trip for the regshared service. The
// simulated cycle counts are bit-identical to RunBench's; only the wall
// times (and so cycles/sec) reflect the backend. Points still run
// sequentially: the measurement owns the wall clock either way.
func RunBenchVia(ctx context.Context, points []BenchPoint, quick bool, exec Executor, progress func(BenchResult)) (*BenchReport, error) {
	return runBench(ctx, points, quick, func(ctx context.Context, pt BenchPoint) (BenchResult, error) {
		req := Request{Bench: pt.Bench, Config: benchConfig(pt.Tracker), Warmup: pt.Warmup, Measure: pt.Measure}
		start := time.Now() //repro:allow nodeterm -- wall-clock measurement metadata, not a simulated result
		res, err := exec(ctx, req)
		if err != nil {
			return BenchResult{}, err
		}
		wall := time.Since(start) //repro:allow nodeterm -- wall-clock measurement metadata, not a simulated result
		if wall <= 0 {
			wall = time.Nanosecond
		}
		return BenchResult{
			Bench:        pt.Bench,
			Tracker:      string(pt.Tracker),
			Warmup:       pt.Warmup,
			Measure:      pt.Measure,
			Cycles:       res.S.Cycles,
			Committed:    res.S.Committed,
			IPC:          res.IPC,
			WallNS:       wall.Nanoseconds(),
			CyclesPerSec: float64(res.S.Cycles) / wall.Seconds(),
		}, nil
	}, progress)
}

// directPoint is RunBench's measurement: the core driven directly, with
// no runner layers between the wall clock and the cycle loop, so the
// number tracks the simulator itself across PRs.
func directPoint(ctx context.Context, pt BenchPoint) (BenchResult, error) {
	spec, err := workloads.Resolve(pt.Bench)
	if err != nil {
		return BenchResult{}, fmt.Errorf("sim: %w %q", ErrUnknownBenchmark, pt.Bench)
	}
	prog := workloads.Build(spec)
	c := core.New(benchConfig(pt.Tracker), prog)
	start := time.Now() //repro:allow nodeterm -- wall-clock measurement metadata, not a simulated result
	st, err := c.RunContext(ctx, pt.Warmup, pt.Measure)
	if err != nil {
		return BenchResult{}, canceledErr(pt.Bench, err)
	}
	wall := time.Since(start) //repro:allow nodeterm -- wall-clock measurement metadata, not a simulated result
	if wall <= 0 {
		wall = time.Nanosecond
	}
	return BenchResult{
		Bench:        pt.Bench,
		Tracker:      string(pt.Tracker),
		Warmup:       pt.Warmup,
		Measure:      pt.Measure,
		Cycles:       st.Cycles,
		Committed:    st.Committed,
		IPC:          st.IPC(),
		WallNS:       wall.Nanoseconds(),
		CyclesPerSec: float64(st.Cycles) / wall.Seconds(),
	}, nil
}

// runBench drives the per-point measurement and aggregates the report.
func runBench(ctx context.Context, points []BenchPoint, quick bool, run func(context.Context, BenchPoint) (BenchResult, error), progress func(BenchResult)) (*BenchReport, error) {
	rep := &BenchReport{
		Schema:    BenchSchema,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Quick:     quick,
	}
	cps := make([]float64, 0, len(points))
	walls := make([]float64, 0, len(points))
	for _, pt := range points {
		res, err := run(ctx, pt)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, res)
		rep.TotalWallNS += res.WallNS
		cps = append(cps, res.CyclesPerSec)
		walls = append(walls, float64(res.WallNS))
		if progress != nil {
			progress(res)
		}
	}
	rep.GMeanCPS = stats.GeoMean(cps)
	rep.GMeanWallNS = stats.GeoMean(walls)
	return rep, nil
}

// AttachBaseline embeds an earlier report's aggregates into rep and
// computes both speedups: the whole-report gmean ratio, and the
// matched-point ratio over the points the two reports share (same
// benchmark and tracker). When the point sets are equal the two
// coincide; when they differ — a -quick run against a full baseline —
// only the matched ratio compares like with like.
func (rep *BenchReport) AttachBaseline(base *BenchReport, label string) {
	rep.Baseline = &BenchBaseline{
		Label:        label,
		GMeanCPS:     base.GMeanCPS,
		TotalWallNS:  base.TotalWallNS,
		GMeanWallNS:  base.GMeanWallNS,
		SchemaOfFile: base.Schema,
	}
	if base.GMeanCPS > 0 {
		rep.SpeedupVsBaseline = rep.GMeanCPS / base.GMeanCPS
	}

	// Points match on benchmark+tracker, and — when both reports record
	// run lengths — on identical lengths too, so a re-pinned quick set
	// can never silently compare against a baseline that ran different
	// lengths. Reports written before the Warmup/Measure fields existed
	// carry zeros; lengths are then unknowable and excluded from the key.
	withLengths := hasRunLengths(rep.Points) && hasRunLengths(base.Points)
	key := func(p BenchResult) string {
		if withLengths {
			return fmt.Sprintf("%s|%s|%d|%d", p.Bench, p.Tracker, p.Warmup, p.Measure)
		}
		return fmt.Sprintf("%s|%s", p.Bench, p.Tracker)
	}
	baseCPS := make(map[string]float64, len(base.Points))
	for _, p := range base.Points {
		if _, dup := baseCPS[key(p)]; !dup {
			baseCPS[key(p)] = p.CyclesPerSec
		}
	}
	var mine, theirs []float64
	for _, p := range rep.Points {
		if cps, ok := baseCPS[key(p)]; ok && cps > 0 {
			mine = append(mine, p.CyclesPerSec)
			theirs = append(theirs, cps)
		}
	}
	if len(mine) > 0 {
		rep.Baseline.MatchedPoints = len(mine)
		rep.Baseline.MatchedGMeanCPS = stats.GeoMean(theirs)
		rep.SpeedupVsBaselineMatched = stats.GeoMean(mine) / rep.Baseline.MatchedGMeanCPS
	}
}

// hasRunLengths reports whether every point records its run lengths
// (reports written before the fields existed carry zeros).
func hasRunLengths(points []BenchResult) bool {
	for _, p := range points {
		if p.Warmup == 0 && p.Measure == 0 {
			return false
		}
	}
	return len(points) > 0
}

// WriteFile serializes the report to path (indented JSON, trailing
// newline, atomic-enough for a results file).
func (rep *BenchReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadBenchReport reads a BENCH_*.json file.
func LoadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("sim: parsing %s: %w", path, err)
	}
	return &rep, nil
}
