package dispatch

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// smallReq is a fast, valid request for round-trip tests.
func smallReq(bench string, measure uint64) sim.Request {
	cfg := core.DefaultConfig()
	cfg.ME.Enabled = true
	return sim.Request{Bench: bench, Config: cfg, Warmup: 200, Measure: measure}
}
