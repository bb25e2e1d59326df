package sim

import "repro/internal/stats"

// Series is one named speedup curve over a benchmark list — the unit
// every figure and sweep reports.
type Series struct {
	Name    string
	Per     map[string]float64
	GMean   float64
	MaxName string
	Max     float64
}

// MakeSeries builds the speedup series of opt over base. The two slices
// must be positionally aligned (same benchmarks, same order), as a
// scenario cell's baseline and optimized request lists are.
func MakeSeries(name string, base, opt []*Result) Series {
	s := Series{Name: name, Per: make(map[string]float64, len(base))}
	sp := make([]float64, 0, len(base))
	for i := range base {
		v := stats.Speedup(opt[i].IPC, base[i].IPC)
		s.Per[base[i].Bench] = v
		sp = append(sp, v)
		if v > s.Max {
			s.Max = v
			s.MaxName = base[i].Bench
		}
	}
	s.GMean = stats.GeoMean(sp)
	return s
}
