// Package scenario is the declarative experiment engine: it turns a
// JSON `.scenario` spec — a grid of workloads × configuration mutations
// × tracker schemes × run lengths — into a deduplicated sim.Request
// matrix, executes it batched through a shared sim.Runner (bounded
// parallelism, singleflight dedup, sharded on-disk store), and
// aggregates the results into a stable report: per-cell speedup series,
// geometric means, and the text tables cmd/sweep and cmd/paperfigs
// print.
//
// The paper's evaluation is exactly such a grid (ME/SMB on/off × five
// reference-counting schemes × ISRB sizes × 36 workloads), so the
// headline figures ship as committed specs under specs/ (see Builtin)
// instead of hard-coded harness Go; opening a new sweep axis means
// writing a spec, not editing a command.
//
// A minimal spec:
//
//	{
//	  "name": "isrb-sweep",
//	  "title": "SMB speedup vs ISRB size",
//	  "benchmarks": ["branch-hostile"],
//	  "warmup": 20000, "measure": 80000,
//	  "opt": {"smb": true},
//	  "axes": [{"name": "entries", "values": [
//	    {"label": "8",  "patch": {"tracker": "isrb", "entries": 8, "ctrbits": 3}},
//	    {"label": "24", "patch": {"tracker": "isrb", "entries": 24, "ctrbits": 3}}]}],
//	  "report": {"kind": "grid", "rowheader": "entries", "valueheader": "SMB speedup"}
//	}
//
// Each cell's baseline is default-config + `base` + the patches of every
// axis marked `"shared": true`; its optimized configuration additionally
// applies `opt` and the non-shared axis patches. The grid, series and
// cells reports show the speedup of the optimized configuration over the
// cell's own baseline, geometric-mean'd across the benchmark list; a
// stats report shows named per-benchmark metrics of a single cell.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/workloads"
)

// Value is one point on an axis: a display label plus the configuration
// patch selecting the point.
//
//repro:wire
type Value struct {
	Label string `json:"label"`
	Patch Patch  `json:"patch"`
}

// Axis is one sweep dimension. A shared axis patches the cell's baseline
// as well as its optimized configuration (e.g. a ROB-size axis, where
// each cell compares against a baseline of the same ROB size); a
// non-shared axis patches only the optimized side (e.g. an ISRB-size
// axis, where every cell compares against the one unmodified baseline).
//
//repro:wire
type Axis struct {
	Name   string  `json:"name"`
	Shared bool    `json:"shared,omitempty"`
	Values []Value `json:"values"`
}

// WorkloadValue is one point on a workload axis: a display label plus
// the benchmark list — workload names, gen: generator names or group
// names — the point selects.
//
//repro:wire
type WorkloadValue struct {
	Label      string   `json:"label"`
	Benchmarks []string `json:"benchmarks"`
}

// WorkloadAxis is a sweep dimension over *program shape* rather than
// machine configuration: each value swaps the benchmark list instead of
// patching the config. Workload axes are always outermost in the cell
// order (they vary slowest), and combine freely with config axes — a
// scheme × ROB × workload-shape grid is three axes like any other.
// Every cell still compares its optimized configuration against its own
// baseline on the cell's own benchmarks, so speedups stay comparable
// across shapes.
//
//repro:wire
type WorkloadAxis struct {
	Name   string          `json:"name"`
	Values []WorkloadValue `json:"values"`
}

// Report kinds.
const (
	// ReportGrid renders one row per first-axis value and one column per
	// second-axis value (or a single value column for one axis); each
	// cell is the gmean speedup over the cell baseline. Workload axes
	// count as axes here, outermost first.
	ReportGrid = "grid"
	// ReportSeries renders one row per benchmark and one column per cell
	// (the figures' shape), plus a gmean row.
	ReportSeries = "series"
	// ReportCells renders one row per cell — its joined labels and gmean
	// speedup — with no dimensional layout. It is the only kind that
	// scales to grids with three or more axes (the fleet-sized specs).
	ReportCells = "cells"
	// ReportStats renders the one cell of a single-cell grid as one row
	// per benchmark and one column per named metric (see
	// ReportSpec.Metrics), plus an average row.
	ReportStats = "stats"
)

// ReportSpec selects how a scenario's results are rendered as a table.
//
//repro:wire
type ReportSpec struct {
	Kind        string `json:"kind"`                  // "grid" | "series" | "cells" | "stats"
	RowHeader   string `json:"rowheader,omitempty"`   // grid: first column's header
	ValueHeader string `json:"valueheader,omitempty"` // 1-axis grid: the value column's header
	// Metrics names a stats report's columns, in order: "speedup", a
	// named ratio such as "IPC" or "ElimRate", or a counter such as
	// "MemTraps", "MemTraps/100M" or "ME.Eliminated", each optionally
	// prefixed "base." to read the baseline run (see docs/SCENARIOS.md).
	Metrics []string `json:"metrics,omitempty"`
}

// Spec is one parsed scenario.
//
//repro:wire
type Spec struct {
	Name        string `json:"name"`
	Title       string `json:"title"`
	Description string `json:"description,omitempty"`
	// Benchmarks mixes explicit workload names, gen: generator names and
	// group names ("all", "int", "fp", "branch-hostile"); groups expand
	// in place, duplicates collapse on first occurrence. It may be empty
	// when WorkloadAxes supplies every cell's benchmarks; when both are
	// present, every cell runs this list plus its axis values' lists.
	Benchmarks []string `json:"benchmarks,omitempty"`
	Warmup     uint64   `json:"warmup"`
	Measure    uint64   `json:"measure"`
	Base       Patch    `json:"base,omitempty"`
	Opt        Patch    `json:"opt,omitempty"`
	// WorkloadAxes sweep program shape; Axes sweep machine
	// configuration. Cell order is row-major over workload axes first
	// (outermost), then config axes (the last config axis varies
	// fastest).
	WorkloadAxes []WorkloadAxis `json:"workload_axes,omitempty"`
	Axes         []Axis         `json:"axes,omitempty"`
	Report       ReportSpec     `json:"report"`
}

// Parse reads one spec from r, rejecting unknown fields (a typo'd knob
// must fail loudly, not silently sweep nothing) and validating it.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ParseBytes parses a spec held in memory.
func ParseBytes(data []byte) (*Spec, error) { return Parse(bytes.NewReader(data)) }

// LoadFile parses the spec at path.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := ParseBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// Validate checks the spec's internal consistency: a non-empty name and
// grid, resolvable benchmarks, positive run lengths, known patch values
// and a renderable report shape.
func (s *Spec) Validate() error {
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("scenario %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.Measure == 0 {
		return fail("measure must be positive")
	}
	if len(s.Benchmarks) == 0 && len(s.WorkloadAxes) == 0 {
		return fail("no benchmarks selected")
	}
	if len(s.Benchmarks) != 0 {
		if _, err := s.ResolveBenchmarks(); err != nil {
			return fail("%v", err)
		}
	}
	if len(s.Axes) == 0 && len(s.WorkloadAxes) == 0 {
		return fail("no axes: the grid is empty")
	}
	for _, a := range s.WorkloadAxes {
		if a.Name == "" {
			return fail("workload axis with no name")
		}
		if len(a.Values) == 0 {
			return fail("workload axis %q has no values: the grid is empty", a.Name)
		}
		for _, v := range a.Values {
			if v.Label == "" {
				return fail("workload axis %q has a value with no label", a.Name)
			}
			if _, err := resolveBenchList(append(append([]string{}, s.Benchmarks...), v.Benchmarks...)); err != nil {
				return fail("workload axis %q value %q: %v", a.Name, v.Label, err)
			}
		}
	}
	for _, a := range s.Axes {
		if a.Name == "" {
			return fail("axis with no name")
		}
		if len(a.Values) == 0 {
			return fail("axis %q has no values: the grid is empty", a.Name)
		}
		for _, v := range a.Values {
			if v.Label == "" {
				return fail("axis %q has a value with no label", a.Name)
			}
			if err := v.Patch.Validate(); err != nil {
				return fail("axis %q value %q: %v", a.Name, v.Label, err)
			}
		}
	}
	for _, sp := range []struct {
		side string
		p    *Patch
	}{{"base", &s.Base}, {"opt", &s.Opt}} {
		if err := sp.p.Validate(); err != nil {
			return fail("%s patch: %v", sp.side, err)
		}
	}
	nAxes := len(s.WorkloadAxes) + len(s.Axes)
	if len(s.Report.Metrics) != 0 && s.Report.Kind != ReportStats {
		return fail("metrics apply only to a stats report, not to a %q report", s.Report.Kind)
	}
	switch s.Report.Kind {
	case ReportGrid:
		if nAxes > 2 {
			return fail("grid report needs 1 or 2 axes (workload axes included), spec has %d", nAxes)
		}
	case ReportSeries:
		if nAxes != 1 {
			return fail("series report needs exactly 1 axis (workload axes included), spec has %d", nAxes)
		}
	case ReportCells:
	case ReportStats:
		for _, a := range s.combinedAxes() {
			if len(a.labels) != 1 {
				return fail("stats report needs exactly one cell, axis %q has %d values", a.name, len(a.labels))
			}
		}
		if len(s.Report.Metrics) == 0 {
			return fail("stats report names no metrics")
		}
		for _, name := range s.Report.Metrics {
			if _, err := lookupMetric(name); err != nil {
				return fail("%v", err)
			}
		}
	default:
		return fail("unknown report kind %q (known: grid series cells stats)", s.Report.Kind)
	}
	return nil
}

// axisView is the dimension-agnostic face of one sweep axis — its name
// and value labels — in combined cell order: workload axes first, then
// config axes. Report rendering lays out cells with it, so a grid over
// a workload axis and a grid over a config axis render identically.
type axisView struct {
	name   string
	labels []string
}

// combinedAxes lists the spec's sweep dimensions in cell order.
func (s *Spec) combinedAxes() []axisView {
	out := make([]axisView, 0, len(s.WorkloadAxes)+len(s.Axes))
	for _, a := range s.WorkloadAxes {
		v := axisView{name: a.Name, labels: make([]string, len(a.Values))}
		for i, val := range a.Values {
			v.labels[i] = val.Label
		}
		out = append(out, v)
	}
	for _, a := range s.Axes {
		v := axisView{name: a.Name, labels: make([]string, len(a.Values))}
		for i, val := range a.Values {
			v.labels[i] = val.Label
		}
		out = append(out, v)
	}
	return out
}

// ResolveBenchmarks expands groups and validates names, preserving
// order and dropping duplicates. Names are returned in canonical form
// (gen: generator names have many equivalent spellings), so everything
// downstream — matrix cells, dedup keys, store envelopes — addresses
// one workload by exactly one string.
func (s *Spec) ResolveBenchmarks() ([]string, error) {
	return resolveBenchList(s.Benchmarks)
}

// resolveBenchList is the group-expanding, canonicalizing name
// resolver shared by the top-level benchmark list and workload-axis
// values.
func resolveBenchList(list []string) ([]string, error) {
	if len(list) == 0 {
		return nil, fmt.Errorf("no benchmarks selected")
	}
	var names []string
	seen := make(map[string]bool)
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, b := range list {
		if members, ok := workloads.Members(b); ok {
			for _, m := range members {
				add(m.Name)
			}
			continue
		}
		canonical, err := workloads.CanonicalName(b)
		if err != nil {
			return nil, fmt.Errorf("benchmark %q: not a workload and not a group (groups: %v): %w",
				b, workloads.Groups(), err)
		}
		add(canonical)
	}
	return names, nil
}
