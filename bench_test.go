package regshare

// Microbenchmarks of the front-end predictors and functional execution.
// The simulator's cycle loop, program construction and the reference
// counting structures have their own benchmarks in internal/core,
// internal/workloads and internal/refcount; the paper's tables and
// figures are regenerated by cmd/paperfigs from the committed scenario
// specs, and their shapes are asserted by the tests in
// internal/experiments.
//
// Run them with:
//
//	go test -run '^$' -bench . -benchmem

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/smb"
	"repro/internal/tage"
	"repro/internal/workloads"
)

// BenchmarkTAGEBranchPredict measures the front-end predictor.
func BenchmarkTAGEBranchPredict(b *testing.B) {
	p := tage.NewBranchPredictor(tage.DefaultBranchConfig())
	var h tage.History
	var pr tage.BranchPrediction
	for i := 0; i < b.N; i++ {
		pc := uint64(0x1000 + (i%64)*4)
		p.Predict(pc, &h, &pr)
		taken := i%3 == 0
		p.Update(pc, &pr, taken)
		h.Push(taken, pc)
	}
}

// BenchmarkDistancePredict measures the SMB distance predictor.
func BenchmarkDistancePredict(b *testing.B) {
	p := smb.NewTAGEDistance()
	var h tage.History
	for i := 0; i < b.N; i++ {
		pc := uint64(0x2000 + (i%32)*4)
		p.Train(pc, &h, uint16(7+(i%4)))
		p.Predict(pc, &h)
	}
}

// BenchmarkFunctionalExecution measures the trace generator.
func BenchmarkFunctionalExecution(b *testing.B) {
	spec, _ := workloads.Resolve("gcc")
	prog := workloads.Build(spec)
	e := program.NewExecutor(prog)
	var u isa.Uop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Next(&u)
	}
}
