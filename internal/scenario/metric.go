package scenario

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// metric is one resolved column of a stats report: how to read its
// value from a benchmark's baseline and optimized results, and how to
// print the value.
type metric struct {
	// value reports false where the metric is undefined for the run.
	value  func(base, opt *sim.Result) (float64, bool)
	format func(float64) string
}

// The print formats, by what a metric measures.
func count(v float64) string   { return fmt.Sprintf("%.0f", v) }
func decimal(v float64) string { return fmt.Sprintf("%.3f", v) }
func percent(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }

// ratio is a named value derived from core.Stats, with the condition
// under which it is defined.
type ratio struct {
	value  func(s *core.Stats) (float64, bool)
	format func(float64) string
}

// ratios are the named ratios a stats report can show. A distance needs
// two events to span, so the §6.3 averages count only the runs that
// have two.
var ratios = map[string]ratio{
	"IPC":        {func(s *core.Stats) (float64, bool) { return s.IPC(), true }, decimal},
	"ElimRate":   {func(s *core.Stats) (float64, bool) { return s.ElimRate(), true }, percent},
	"BypassRate": {func(s *core.Stats) (float64, bool) { return s.BypassRate(), true }, percent},
	"BranchMPKI": {func(s *core.Stats) (float64, bool) {
		return 1000 * float64(s.BranchMispredicts) / float64(s.Committed), true
	}, decimal},
	"ShareDistance": {func(s *core.Stats) (float64, bool) {
		return s.ShareDistance(), s.ShareAttempts > 1
	}, decimal},
	"ReclaimCheckDistance": {func(s *core.Stats) (float64, bool) {
		return s.ReclaimCheckDistance(), s.ReclaimChecks > 1
	}, decimal},
	"ReclaimBackToBackRate": {func(s *core.Stats) (float64, bool) {
		return s.ReclaimBackToBackRate(), s.ReclaimChecks > 1
	}, percent},
}

// lookupMetric resolves a stats-report metric name. It is one of:
//
//   - "speedup": optimized IPC over baseline IPC;
//   - a named ratio of core.Stats (see ratios);
//   - a uint64 counter of core.Stats by field name ("MemTraps"), or of
//     sim.MEStats as "ME.<field>"; a "/100M" suffix scales the count
//     per 100M committed µops.
//
// A "base." prefix on a ratio or counter reads the cell's baseline run
// instead of its optimized run.
func lookupMetric(name string) (metric, error) {
	if name == "speedup" {
		return metric{
			value: func(base, opt *sim.Result) (float64, bool) {
				return stats.Speedup(opt.IPC, base.IPC), true
			},
			format: stats.Pct,
		}, nil
	}
	field, fromBase := strings.CutPrefix(name, "base.")
	pick := func(base, opt *sim.Result) *sim.Result {
		if fromBase {
			return base
		}
		return opt
	}
	if r, ok := ratios[field]; ok {
		return metric{
			value:  func(base, opt *sim.Result) (float64, bool) { return r.value(&pick(base, opt).S) },
			format: r.format,
		}, nil
	}
	field, per100M := strings.CutSuffix(field, "/100M")
	idx, ok := counterIndex(field)
	if !ok {
		return metric{}, fmt.Errorf("unknown metric %q (known: speedup, %s, a uint64 field of core.Stats "+
			"or ME.<field> of sim.MEStats with an optional /100M suffix; base. reads the baseline run)",
			name, strings.Join(slices.Sorted(maps.Keys(ratios)), ", "))
	}
	return metric{
		value: func(base, opt *sim.Result) (float64, bool) {
			res := pick(base, opt)
			v := float64(reflect.ValueOf(res).Elem().FieldByIndex(idx).Uint())
			if per100M {
				v = v * 100e6 / float64(res.S.Committed)
			}
			return v, true
		},
		format: count,
	}, nil
}

// counterIndex finds the sim.Result field a counter metric names: a
// uint64 field of core.Stats, or "ME.<field>" for one of sim.MEStats.
func counterIndex(name string) ([]int, bool) {
	group := "S"
	if rest, ok := strings.CutPrefix(name, "ME."); ok {
		group, name = "ME", rest
	}
	g, _ := reflect.TypeOf(sim.Result{}).FieldByName(group)
	f, ok := g.Type.FieldByName(name)
	if !ok || f.Type.Kind() != reflect.Uint64 {
		return nil, false
	}
	return append(append([]int{}, g.Index...), f.Index...), true
}
