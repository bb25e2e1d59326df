package experiments

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/refcount"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// The experiment tests verify the REPRODUCTION SHAPES of the committed
// figure specs at reduced run lengths — who wins, where the curves
// saturate — not absolute numbers.

// testRunner is shared by every test in the package (set up in
// TestMain): the sim.Runner deduplicates by (benchmark, config, run
// lengths), so the baseline sweep and every overlapping configuration
// simulate exactly once for the whole suite instead of once per test.
var testRunner *sim.Runner

func TestMain(m *testing.M) {
	testRunner = sim.New()
	os.Exit(m.Run())
}

// figure runs the committed figure spec name at the quick test lengths.
func figure(t *testing.T, name string) *scenario.RunReport {
	t.Helper()
	return figureAt(t, name, 10_000, 50_000)
}

// figureAt runs the committed figure spec name at the given lengths
// through the shared runner.
func figureAt(t *testing.T, name string, warmup, measure uint64) *scenario.RunReport {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment sweeps skipped in -short mode")
	}
	spec, err := scenario.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Expand(scenario.Overrides{Warmup: &warmup, Measure: &measure})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(context.Background(), testRunner, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// byName indexes a report's speedup series by cell name.
func byName(rep *scenario.RunReport) map[string]sim.Series {
	out := make(map[string]sim.Series, len(rep.Cells))
	for _, c := range rep.Cells {
		out[c.Name] = c.Series
	}
	return out
}

// TestShortSmoke keeps a fast end-to-end shape check alive in -short
// mode: one baseline and one combined run on a single benchmark, and the
// headline direction (sharing does not tank IPC) holds.
func TestShortSmoke(t *testing.T) {
	run := func(cfg core.Config) *sim.Result {
		res, err := testRunner.Run(context.Background(),
			sim.Request{Bench: "crafty", Config: cfg, Warmup: 2_000, Measure: 15_000})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	combined := core.DefaultConfig()
	combined.ME.Enabled = true
	combined.SMB.Enabled = true
	combined.Tracker = core.TrackerConfig{Kind: core.TrackerISRB, Entries: 24, CounterBits: 3}
	base := run(core.DefaultConfig())
	opt := run(combined)
	if base.IPC <= 0 || base.S.Committed < 15_000 {
		t.Fatalf("degenerate baseline run: IPC=%v committed=%d", base.IPC, base.S.Committed)
	}
	if opt.IPC < 0.8*base.IPC {
		t.Fatalf("ME+SMB lost >20%% IPC on crafty: %.3f vs %.3f", opt.IPC, base.IPC)
	}
}

func TestTable1Renders(t *testing.T) {
	s := Table1().String()
	for _, want := range []string{"192-entry ROB", "TAGE", "Store Sets", "DDR3"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestStorageTableMatchesPaperArithmetic(t *testing.T) {
	// Spot checks of the §4.2/§4.3.3 numbers through the table's inputs.
	if bits := refcount.MatrixScheme(192, 168, 2); bits != 64512 {
		t.Fatalf("Roth matrix = %d bits, want 2x192x168 = 64512 (≈7.8KB)", bits)
	}
	if kb := refcount.KB(refcount.MatrixScheme(192, 168, 2)); kb < 7.7 || kb > 7.9 {
		t.Fatalf("Roth matrix = %.2fKB, want ≈7.8KB", kb)
	}
	if kb := refcount.KB(refcount.SchedulerMatrix(60)); kb < 0.42 || kb > 0.46 {
		t.Fatalf("scheduler matrix = %.2fKB, want ≈0.44KB", kb)
	}
	cpu, ck := refcount.ISRBStorage(32, 3)
	if cpu != 480 || ck != 96 {
		t.Fatalf("ISRB(32,3) = %d/%d bits, want 480/96", cpu, ck)
	}
	if refcount.CountersCheckpointBits(336, 2) < 600 {
		t.Fatal("per-register counter checkpoint must exceed 600 bits (§4.2)")
	}
	s := StorageTable().String()
	if !strings.Contains(s, "480 bits") || !strings.Contains(s, "96 bits") {
		t.Fatalf("storage table missing ISRB numbers:\n%s", s)
	}
}

// TestFig5aShape: ME speedups saturate with ISRB size and the gmean is
// small but positive (§6.1: "speedups are generally limited, 1% gmean").
func TestFig5aShape(t *testing.T) {
	series := byName(figure(t, "fig5a"))
	unl := series["ME-unlimited"]
	if unl.GMean < 1.001 || unl.GMean > 1.06 {
		t.Fatalf("ME unlimited gmean %.4f outside the small-positive band", unl.GMean)
	}
	// 16 entries capture most of the unlimited potential (§6.1).
	if series["ME-16"].GMean < unl.GMean-0.01 {
		t.Fatalf("16-entry ISRB gmean %.4f far below unlimited %.4f", series["ME-16"].GMean, unl.GMean)
	}
	// crafty is the top integer gainer.
	if unl.Per["crafty"] < 1.02 {
		t.Fatalf("crafty ME speedup %.4f, want the suite's top-tier gain", unl.Per["crafty"])
	}
}

// TestFig5bShape: elimination rate does not imply gain (§6.1's vortex
// vs namd contrast).
func TestFig5bShape(t *testing.T) {
	rates := figure(t, "fig5b").Cells[0].Stats["ElimRate"]
	unl := byName(figure(t, "fig5a"))["ME-unlimited"]
	if rates["vortex"] < 0.04 {
		t.Fatalf("vortex elimination rate %.3f, want the suite's high end", rates["vortex"])
	}
	if rates["crafty"] <= rates["namd"] {
		t.Fatalf("crafty rate %.3f should exceed namd rate %.3f", rates["crafty"], rates["namd"])
	}
	// vortex: high rate, modest gain — gain per eliminated µop must be
	// far below crafty's.
	vortexYield := (unl.Per["vortex"] - 1) / rates["vortex"]
	craftyYield := (unl.Per["crafty"] - 1) / rates["crafty"]
	if vortexYield >= craftyYield {
		t.Fatalf("vortex gain-per-elimination (%.3f) >= crafty's (%.3f): the §6.1 decorrelation is lost",
			vortexYield, craftyYield)
	}
}

// TestFig6aShape: SMB needs more ISRB entries than ME; TAGE beats the
// NoSQ-style predictor overall; key benchmarks gain substantially.
func TestFig6aShape(t *testing.T) {
	series := byName(figure(t, "fig6a"))
	unl, nosq := series["SMB-unlimited"], series["SMB-NoSQ-unl"]
	if unl.GMean <= 1.005 {
		t.Fatalf("SMB gmean %.4f: no overall gain", unl.GMean)
	}
	if nosq.GMean >= unl.GMean {
		t.Fatalf("NoSQ-style predictor gmean %.4f >= TAGE %.4f (§3.1's comparison inverted)",
			nosq.GMean, unl.GMean)
	}
	// 24 entries capture nearly the full potential (§6.2).
	if series["SMB-24"].GMean < unl.GMean-0.02 {
		t.Fatalf("24-entry gmean %.4f too far below unlimited %.4f", series["SMB-24"].GMean, unl.GMean)
	}
	// 8 entries lose part of it.
	if series["SMB-8"].GMean > series["SMB-24"].GMean+1e-9 {
		t.Fatalf("8-entry gmean above 24-entry gmean")
	}
	for _, b := range []string{"hmmer", "wupwise", "gamess"} {
		if unl.Per[b] < 1.05 {
			t.Errorf("%s SMB speedup %.4f, want a headline gain", b, unl.Per[b])
		}
	}
}

// TestFig6bShape: SMB reduces traps and false dependencies (with zero
// warmup so the one-time training events are visible).
func TestFig6bShape(t *testing.T) {
	rep := figureAt(t, "fig6b", 0, 60_000)
	st := rep.Cells[0].Stats
	var baseTraps, optTraps, baseFD, optFD float64
	for _, b := range rep.Benches {
		baseTraps += st["base.MemTraps"][b]
		optTraps += st["MemTraps"][b]
		baseFD += st["base.FalseDeps"][b]
		optFD += st["FalseDeps"][b]
	}
	if baseTraps == 0 || baseFD == 0 {
		t.Fatalf("baseline shows no traps (%.0f) or false deps (%.0f)", baseTraps, baseFD)
	}
	if optFD >= baseFD {
		t.Fatalf("SMB did not reduce false dependencies: %.0f -> %.0f", baseFD, optFD)
	}
	if optTraps > baseTraps {
		t.Fatalf("SMB increased memory traps: %.0f -> %.0f", baseTraps, optTraps)
	}
}

// TestFig6cShape: lazy reclaim is marginal overall and hurts with a
// 24-entry ISRB (committed bypasses steal entries, §3.3/§6.2).
func TestFig6cShape(t *testing.T) {
	series := byName(figure(t, "fig6c"))
	eU, lU := series["eager-unlimited"].GMean, series["lazy-unlimited"].GMean
	if lU < eU-0.02 {
		t.Fatalf("lazy reclaim (unlimited ISRB) lost %.4f vs eager %.4f; should be ~marginal", lU, eU)
	}
	e24, l24 := series["eager-24"].GMean, series["lazy-24"].GMean
	if l24 > e24+0.02 {
		t.Fatalf("lazy reclaim with a 24-entry ISRB unexpectedly helps a lot: %.4f vs %.4f", l24, e24)
	}
}

// TestFig7Shape: combined ME+SMB; 32 entries ≈ unlimited; 24 a good
// trade-off; the paper's gmean band.
func TestFig7Shape(t *testing.T) {
	series := byName(figure(t, "fig7"))
	unl := series["ME+SMB-unlimited"].GMean
	if unl < 1.01 {
		t.Fatalf("combined gmean %.4f: too small", unl)
	}
	if series["ME+SMB-32"].GMean < unl-0.015 {
		t.Fatalf("32-entry combined gmean %.4f far below unlimited %.4f",
			series["ME+SMB-32"].GMean, unl)
	}
	if series["ME+SMB-16"].GMean > series["ME+SMB-24"].GMean+0.01 {
		t.Fatal("16 entries outperform 24: pressure ordering inverted")
	}
}

// TestStoreOnlyShape: §6.2 — disabling load-load bypassing notably hurts
// the named benchmarks.
func TestStoreOnlyShape(t *testing.T) {
	series := figure(t, "storeonly").Series()
	full, so := series[0], series[1]
	if so.GMean > full.GMean+1e-9 {
		t.Fatalf("store-only gmean %.4f above full %.4f", so.GMean, full.GMean)
	}
	drops := 0
	for _, b := range []string{"astar", "wupwise", "applu", "bzip", "hmmer"} {
		if full.Per[b]-so.Per[b] > 0.01 {
			drops++
		}
	}
	if drops < 3 {
		t.Fatalf("only %d of the load-load-sensitive benchmarks dropped under store-only", drops)
	}
}

// TestCounterWidthShape: §6.3 — 3-bit counters land near the unlimited
// 32-bit result; 1-bit counters lose more.
func TestCounterWidthShape(t *testing.T) {
	series := byName(figure(t, "cwidth"))
	one, three, unl := series["1-bit"].GMean, series["3-bit"].GMean, series["unlimited-32b"].GMean
	if three < unl-0.02 {
		t.Fatalf("3-bit counters gmean %.4f too far below unlimited %.4f", three, unl)
	}
	if one > three+1e-9 {
		t.Fatalf("1-bit counters (%.4f) beat 3-bit (%.4f)", one, three)
	}
}

// TestDDTSizingShape: the 1K-entry DDT stays close to unlimited overall.
func TestDDTSizingShape(t *testing.T) {
	series := figure(t, "ddt").Series()
	unl, small := series[0], series[2]
	if small.GMean < unl.GMean-0.03 {
		t.Fatalf("1K DDT gmean %.4f too far below unlimited %.4f (§3.1: within ~2.2%%)",
			small.GMean, unl.GMean)
	}
}

// TestISRBTrafficTable renders and contains the average row.
func TestISRBTrafficTable(t *testing.T) {
	out := figure(t, "ports").Table().String()
	if !strings.Contains(out, "average") {
		t.Fatalf("traffic table missing average row:\n%s", out)
	}
}

// TestBaselineShape sanity-checks Figure 4's preconditions: enough
// benchmarks show memory traps and false dependencies in the baseline.
func TestBaselineShape(t *testing.T) {
	rep := figureAt(t, "fig6b", 0, 60_000)
	st := rep.Cells[0].Stats
	var withTraps, withFD int
	for _, b := range rep.Benches {
		if st["base.MemTraps"][b] > 0 {
			withTraps++
		}
		if st["base.FalseDeps"][b] > 0 {
			withFD++
		}
	}
	if withTraps < 4 {
		t.Fatalf("only %d benchmarks show memory traps", withTraps)
	}
	if withFD < 4 {
		t.Fatalf("only %d benchmarks show false dependencies", withFD)
	}
}

// TestExtensionROB512Lazy: §6.2's note — committed-instruction bypassing
// stays marginal even with a 512-entry ROB.
func TestExtensionROB512Lazy(t *testing.T) {
	series := byName(figure(t, "rob512"))
	lazy, eager := series["rob512-lazy"].GMean, series["rob512-eager"].GMean
	if lazy < eager-0.03 {
		t.Fatalf("lazy reclaim at ROB 512 lost a lot: %.4f vs %.4f", lazy, eager)
	}
	if lazy > eager+0.05 {
		t.Fatalf("lazy reclaim at ROB 512 helps a lot (%.4f vs %.4f); the paper found it marginal",
			lazy, eager)
	}
}

// TestExtensionSingleBitME: §6.3 footnote 10 — ME-only works with 1-bit
// counters.
func TestExtensionSingleBitME(t *testing.T) {
	series := byName(figure(t, "singlebit"))
	one, three := series["ME-16x1b"].GMean, series["ME-16x3b"].GMean
	if one < three-0.01 {
		t.Fatalf("single-bit ME gmean %.4f far below 3-bit %.4f", one, three)
	}
}

// TestExtensionDistanceHistory: history helps the distance predictor
// (pc-only must not beat the paper's geometry).
func TestExtensionDistanceHistory(t *testing.T) {
	series := byName(figure(t, "disthist"))
	pcOnly, paper := series["pc-only"].GMean, series["paper-2..64"].GMean
	if pcOnly > paper+0.01 {
		t.Fatalf("PC-only distance predictor (%.4f) beats the history-indexed one (%.4f)", pcOnly, paper)
	}
}

// TestExtensionTrackerComparison: §4.2 quantified — the MIT (no SMB) must
// trail the ISRB; sequential-rollback counters must trail too; the RDA
// and unlimited match the ISRB closely.
func TestExtensionTrackerComparison(t *testing.T) {
	series := byName(figure(t, "trackers"))
	isrb := series["ISRB-32x3b"].GMean
	if mit := series["MIT-16"].GMean; mit >= isrb-0.005 {
		t.Fatalf("MIT gmean %.4f not clearly below ISRB %.4f despite losing SMB", mit, isrb)
	}
	if counters, unl := series["counters"].GMean, series["unlimited"].GMean; counters > unl+1e-9 {
		t.Fatalf("sequential-rollback counters (%.4f) beat the checkpointable ideal (%.4f)", counters, unl)
	}
	if rda := series["RDA-32"].GMean; rda < isrb-0.02 {
		t.Fatalf("RDA gmean %.4f far below ISRB %.4f; they share mechanics", rda, isrb)
	}
}
