package scenario

import (
	"flag"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Overrides carries the command-line knobs that may override a committed
// spec without editing it. Nil/empty fields leave the spec's own choice
// in place; a pointer to zero is an explicit zero (e.g. no warmup).
type Overrides struct {
	Warmup     *uint64
	Measure    *uint64
	Benchmarks []string // names or group names
}

// CommandOverrides collects the standard -warmup/-measure/-bench
// override flags every scenario-driving command exposes. flag.Visit
// distinguishes flags the user actually set from defaults, so an
// explicit `-warmup 0` overrides while an untouched flag leaves the
// spec's choice in place. Call after flag.Parse.
func CommandOverrides(warmup, measure *uint64, bench string) Overrides {
	var ov Overrides
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "warmup":
			ov.Warmup = warmup
		case "measure":
			ov.Measure = measure
		}
	})
	if bench != "" {
		ov.Benchmarks = []string{bench}
	}
	return ov
}

// Cell is one grid point: the combination of one value per axis, with
// the fully-materialized baseline and optimized configurations.
type Cell struct {
	// Labels holds the selected value label per axis — workload axes
	// first, then config axes, matching the spec's combined axis order.
	Labels []string
	// Benches is the cell's canonical benchmark list: the spec's
	// top-level list plus the cell's workload-axis values, groups
	// expanded and names canonicalized. Cells in the same workload combo
	// share the slice; callers must not mutate it.
	Benches []string
	// Base and Opt index into Matrix.Requests, one entry per benchmark
	// (aligned with Benches): the cell's baseline and optimized runs.
	// Several cells typically share baseline request indices — that is
	// the deduplication.
	Base []int
	Opt  []int
	// BaseConfig and OptConfig are the cell's materialized machine
	// configurations, for consumers that need more than the results
	// (e.g. cmd/storagecost instantiating each cell's tracker to price
	// its storage).
	BaseConfig core.Config
	OptConfig  core.Config
}

// Matrix is a fully-expanded scenario: the deduplicated request list
// plus the cells mapping into it. Cells are in row-major combined-axis
// order: workload axes outermost, then config axes, the last config
// axis varying fastest.
type Matrix struct {
	Spec *Spec
	// Benches is the union of every cell's benchmark list, in first-use
	// order. For specs without workload axes it is exactly each cell's
	// list.
	Benches []string
	Warmup  uint64
	Measure uint64
	Cells   []Cell
	// Requests is the deduplicated simulation list in first-use order;
	// running a scenario is exactly one Stream over it.
	Requests []sim.Request
	// FirstUse maps each Requests index to the cell that interned it.
	// Because cells intern their requests in cell order, a contiguous
	// cell range [lo, hi) owns exactly the requests with
	// lo <= FirstUse[i] < hi — the property fleet sharding leans on to
	// run every request exactly once across hosts leasing disjoint cell
	// ranges.
	FirstUse []int
}

// Expand materializes the spec's grid: the cross-product of all axis
// values × the benchmark list, as one deduplicated request matrix.
// Requests shared between cells — every cell's baseline against an
// unmodified machine, identical configs reached along different axis
// paths — appear exactly once.
func (s *Spec) Expand(ov Overrides) (*Matrix, error) {
	m := &Matrix{Spec: s, Warmup: s.Warmup, Measure: s.Measure}
	if ov.Warmup != nil {
		m.Warmup = *ov.Warmup
	}
	if ov.Measure != nil {
		m.Measure = *ov.Measure
	}
	// Overrides bypass Validate, so re-check the invariant it enforces:
	// a zero measured region yields NaN speedups, not results.
	if m.Measure == 0 {
		return nil, fmt.Errorf("scenario %q: measure override must be positive", s.Name)
	}
	sel := *s
	if len(ov.Benchmarks) != 0 {
		if len(s.WorkloadAxes) != 0 {
			// A -bench override would make every workload-axis value
			// select the same list, collapsing the axis into duplicate
			// cells; reject instead of silently sweeping nothing.
			return nil, fmt.Errorf("scenario %q: a benchmark override cannot apply to a spec with workload axes", s.Name)
		}
		sel.Benchmarks = ov.Benchmarks
	}

	index := make(map[string]int)      // sim.Key -> Requests index
	benchSeen := make(map[string]bool) // union membership for m.Benches
	intern := func(benches []string, cfg core.Config) []int {
		idxs := make([]int, len(benches))
		for i, b := range benches {
			req := sim.Request{Bench: b, Config: cfg, Warmup: m.Warmup, Measure: m.Measure}
			key := sim.Key(req)
			at, ok := index[key]
			if !ok {
				at = len(m.Requests)
				index[key] = at
				m.Requests = append(m.Requests, req)
				m.FirstUse = append(m.FirstUse, len(m.Cells))
			}
			idxs[i] = at
		}
		return idxs
	}

	// Row-major walk: workload axes outermost, config axes within.
	wCombo := make([]int, len(s.WorkloadAxes))
	for {
		// This workload combo's canonical benchmark list: the top-level
		// list plus each selected axis value's list.
		names := append([]string{}, sel.Benchmarks...)
		wLabels := make([]string, len(s.WorkloadAxes))
		for ai, vi := range wCombo {
			v := s.WorkloadAxes[ai].Values[vi]
			wLabels[ai] = v.Label
			names = append(names, v.Benchmarks...)
		}
		benches, err := resolveBenchList(names)
		if err != nil {
			return nil, fmt.Errorf("scenario %q cell %v: %w", s.Name, wLabels, err)
		}
		for _, b := range benches {
			if !benchSeen[b] {
				benchSeen[b] = true
				m.Benches = append(m.Benches, b)
			}
		}

		combo := make([]int, len(s.Axes))
		for {
			cell := Cell{
				Labels:  append(append([]string{}, wLabels...), make([]string, len(s.Axes))...),
				Benches: benches,
			}
			baseCfg := core.DefaultConfig()
			s.Base.Apply(&baseCfg)
			for ai, vi := range combo {
				cell.Labels[len(wLabels)+ai] = s.Axes[ai].Values[vi].Label
				if s.Axes[ai].Shared {
					s.Axes[ai].Values[vi].Patch.Apply(&baseCfg)
				}
			}
			optCfg := baseCfg
			s.Opt.Apply(&optCfg)
			for ai, vi := range combo {
				if !s.Axes[ai].Shared {
					s.Axes[ai].Values[vi].Patch.Apply(&optCfg)
				}
			}
			if err := baseCfg.Check(); err != nil {
				return nil, fmt.Errorf("scenario %q cell %v: baseline config: %w", s.Name, cell.Labels, err)
			}
			if err := optCfg.Check(); err != nil {
				return nil, fmt.Errorf("scenario %q cell %v: optimized config: %w", s.Name, cell.Labels, err)
			}
			cell.Base = intern(benches, baseCfg)
			cell.Opt = intern(benches, optCfg)
			cell.BaseConfig = baseCfg
			cell.OptConfig = optCfg
			m.Cells = append(m.Cells, cell)

			// Advance the config odometer, last axis fastest.
			ai := len(combo) - 1
			for ; ai >= 0; ai-- {
				combo[ai]++
				if combo[ai] < len(s.Axes[ai].Values) {
					break
				}
				combo[ai] = 0
			}
			if ai < 0 {
				break
			}
		}

		// Advance the workload odometer.
		ai := len(wCombo) - 1
		for ; ai >= 0; ai-- {
			wCombo[ai]++
			if wCombo[ai] < len(s.WorkloadAxes[ai].Values) {
				break
			}
			wCombo[ai] = 0
		}
		if ai < 0 {
			break
		}
	}
	return m, nil
}

// MustExpand is Expand for harness code where a spec error is a bug.
func (s *Spec) MustExpand(ov Overrides) *Matrix {
	m, err := s.Expand(ov)
	if err != nil {
		panic(err)
	}
	return m
}
