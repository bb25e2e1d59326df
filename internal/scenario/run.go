package scenario

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/refcount"
	"repro/internal/sim"
	"repro/internal/stats"
)

// reportSchema versions the RunReport JSON so downstream consumers of
// archived reports can detect layout changes.
const reportSchema = "sr1"

// CellResult is one grid point's aggregated outcome.
//
//repro:wire
type CellResult struct {
	// Labels are the axis value labels selecting this cell.
	Labels []string `json:"labels"`
	// Name joins the labels ("rob=192/entries=24" style) for flat
	// consumers; for single-axis scenarios it is just the value label.
	Name string `json:"name"`
	// Series is the per-benchmark speedup of the cell's optimized
	// configuration over the cell's own baseline, plus the gmean.
	Series sim.Series `json:"series"`
	// Stats holds a stats report's values, keyed metric name, then
	// benchmark; a value undefined for a benchmark is absent. Other
	// report kinds leave it nil.
	Stats map[string]map[string]float64 `json:"stats,omitempty"`
	// Storage is the storage price of the cell's tracker in a storage
	// report; nil for the unlimited tracker and in other report kinds.
	Storage *refcount.StorageCost `json:"storage,omitempty"`
}

// RunReport is a scenario's stable machine-readable outcome.
//
//repro:wire
type RunReport struct {
	Schema   string       `json:"schema"`
	Scenario string       `json:"scenario"`
	Title    string       `json:"title"`
	Benches  []string     `json:"benchmarks"`
	Warmup   uint64       `json:"warmup"`
	Measure  uint64       `json:"measure"`
	Cells    []CellResult `json:"cells"`

	spec *Spec //repro:allow wirecheck -- runtime handle for rendering; deliberately not serialized
}

// Run executes the matrix through r — one batched Stream over the
// deduplicated request list, so the runner's worker pool, singleflight
// dedup and on-disk store see the whole grid at once — and aggregates
// every cell's speedup series. sink (may be nil) receives each
// request's completion event as workers finish, in completion order:
// progress lines in the commands hang off it. Canceling ctx aborts the
// in-flight simulations mid-cycle-loop and returns an error wrapping
// sim.ErrCanceled; already-completed requests stay in the runner's
// stores, so a fresh-context re-run resumes instead of restarting.
func (m *Matrix) Run(ctx context.Context, r *sim.Runner, sink func(sim.Event)) (*RunReport, error) {
	results, err := r.Stream(ctx, m.Requests, sink)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", m.Spec.Name, err)
	}
	rep := &RunReport{
		Schema:   reportSchema,
		Scenario: m.Spec.Name,
		Title:    m.Spec.Title,
		Benches:  m.Benches,
		Warmup:   m.Warmup,
		Measure:  m.Measure,
		spec:     m.Spec,
	}
	pick := func(idxs []int) []*sim.Result {
		out := make([]*sim.Result, len(idxs))
		for i, at := range idxs {
			out[i] = results[at]
		}
		return out
	}
	for _, c := range m.Cells {
		name := c.Labels[0]
		for _, l := range c.Labels[1:] {
			name += "/" + l
		}
		base, opt := pick(c.Base), pick(c.Opt)
		cr := CellResult{
			Labels: c.Labels,
			Name:   name,
			Series: sim.MakeSeries(name, base, opt),
		}
		switch m.Spec.Report.Kind {
		case ReportStats:
			cr.Stats = cellStats(m.Spec.Report.Metrics, c.Benches, base, opt)
		case ReportStorage:
			// The unlimited tracker is a modelling device, not a design
			// point: a price would present the ideal reference as a real
			// scheme.
			if cfg := m.Requests[c.Opt[0]].Config; cfg.Tracker.Kind != core.TrackerUnlimited {
				cost := cfg.NewTracker().Storage()
				cr.Storage = &cost
			}
		}
		rep.Cells = append(rep.Cells, cr)
	}
	return rep, nil
}

// cellStats evaluates every named metric over a cell's positionally
// aligned benchmark, baseline and optimized lists. The names passed
// Validate, so each resolves.
func cellStats(names, benches []string, base, opt []*sim.Result) map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(names))
	for _, name := range names {
		m, _ := lookupMetric(name)
		per := make(map[string]float64, len(benches))
		for i, b := range benches {
			if v, ok := m.value(base[i], opt[i]); ok {
				per[b] = v
			}
		}
		out[name] = per
	}
	return out
}

// Series returns every cell's speedup series in cell order.
func (rep *RunReport) Series() []sim.Series {
	out := make([]sim.Series, len(rep.Cells))
	for i, c := range rep.Cells {
		out[i] = c.Series
	}
	return out
}

// Table renders the report in the spec's chosen shape.
func (rep *RunReport) Table() *stats.Table {
	if rep.spec != nil {
		switch rep.spec.Report.Kind {
		case ReportGrid:
			return rep.gridTable()
		case ReportCells:
			return rep.cellsTable()
		case ReportStorage:
			return rep.storageTable()
		case ReportStats:
			return rep.statsTable()
		}
	}
	return rep.seriesTable()
}

// seriesTable renders the figures' shape: one row per benchmark, one
// column per cell, and a gmean row. With workload axes, cells can run
// different benchmark lists; a benchmark absent from a cell renders
// as "-".
func (rep *RunReport) seriesTable() *stats.Table {
	cols := []string{"benchmark"}
	for _, c := range rep.Cells {
		cols = append(cols, c.Name)
	}
	t := stats.NewTable(rep.Title, cols...)
	for _, b := range rep.Benches {
		row := []string{b}
		for _, c := range rep.Cells {
			if v, ok := c.Series.Per[b]; ok {
				row = append(row, stats.Pct(v))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	gm := []string{"gmean"}
	for _, c := range rep.Cells {
		gm = append(gm, stats.Pct(c.Series.GMean))
	}
	t.AddRow(gm...)
	return t
}

// cellsTable renders the flat shape for grids too big or too deep to
// lay out dimensionally: one row per cell, joined labels plus gmean.
func (rep *RunReport) cellsTable() *stats.Table {
	t := stats.NewTable(rep.Title, "cell", "speedup")
	for _, c := range rep.Cells {
		t.AddRow(c.Name, stats.Pct(c.Series.GMean))
	}
	return t
}

// storageTable renders a storage report: one row per cell, its price
// in CPU bits and bits per checkpoint, its gmean speedup, and that
// speedup per KB of CPU storage. An unpriced cell reads
// "unlimited (ideal)", and a scheme with no checkpoint storage "not
// checkpointable".
func (rep *RunReport) storageTable() *stats.Table {
	t := stats.NewTable(rep.Title,
		rep.rowHeader(), "CPU bits", "bits/checkpoint", "gmean speedup", "speedup per KB")
	for _, c := range rep.Cells {
		cpu, ck, perKB := "unlimited (ideal)", "-", "-"
		if cost := c.Storage; cost != nil {
			cpu = fmt.Sprint(cost.CPUBits)
			ck = fmt.Sprint(cost.CheckpointBits)
			if cost.CheckpointBits == 0 {
				ck = "not checkpointable"
			}
			if cost.CPUBits > 0 {
				perKB = fmt.Sprintf("%+.2f%%/KB", 100*(c.Series.GMean-1)/refcount.KB(cost.CPUBits))
			}
		}
		t.AddRow(c.Name, cpu, ck, stats.Pct(c.Series.GMean), perKB)
	}
	return t
}

// rowHeader is the first column's header of a grid or storage report:
// the spec's rowheader, else the first axis's name.
func (rep *RunReport) rowHeader() string {
	if h := rep.spec.Report.RowHeader; h != "" {
		return h
	}
	return rep.spec.combinedAxes()[0].name
}

// statsTable renders a stats report: one row per benchmark, one column
// per metric, and an average row holding each metric's arithmetic mean
// over the benchmarks where it is defined. An undefined value prints
// "-".
func (rep *RunReport) statsTable() *stats.Table {
	names := rep.spec.Report.Metrics
	t := stats.NewTable(rep.Title, append([]string{"benchmark"}, names...)...)
	values := rep.Cells[0].Stats
	formats := make([]func(float64) string, len(names))
	for i, name := range names {
		m, _ := lookupMetric(name)
		formats[i] = m.format
	}
	for _, b := range rep.Benches {
		row := []string{b}
		for i, name := range names {
			if v, ok := values[name][b]; ok {
				row = append(row, formats[i](v))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	avg := []string{"average"}
	for i, name := range names {
		var defined []float64
		for _, b := range rep.Benches {
			if v, ok := values[name][b]; ok {
				defined = append(defined, v)
			}
		}
		if len(defined) == 0 {
			avg = append(avg, "-")
		} else {
			avg = append(avg, formats[i](stats.Mean(defined)))
		}
	}
	t.AddRow(avg...)
	return t
}

// gridTable renders the sweeps' shape: first axis down, second axis (or
// the single value column) across, gmean speedup per cell. Workload
// axes lay out exactly like config axes (they are outermost in cell
// order, so they come first in the combined view).
func (rep *RunReport) gridTable() *stats.Table {
	spec := rep.spec
	axes := spec.combinedAxes()
	rowHeader := rep.rowHeader()
	rows := axes[0].labels
	if len(axes) == 1 {
		valueHeader := spec.Report.ValueHeader
		if valueHeader == "" {
			valueHeader = "speedup"
		}
		t := stats.NewTable(rep.Title, rowHeader, valueHeader)
		for i, label := range rows {
			t.AddRow(label, stats.Pct(rep.Cells[i].Series.GMean))
		}
		return t
	}
	cols := []string{rowHeader}
	cols = append(cols, axes[1].labels...)
	t := stats.NewTable(rep.Title, cols...)
	width := len(axes[1].labels)
	for i, label := range rows {
		row := []string{label}
		for j := 0; j < width; j++ {
			row = append(row, stats.Pct(rep.Cells[i*width+j].Series.GMean))
		}
		t.AddRow(row...)
	}
	return t
}
