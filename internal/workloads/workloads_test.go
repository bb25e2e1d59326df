package workloads

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

func TestCatalogShape(t *testing.T) {
	specs := Catalog()
	if len(specs) != 36 {
		t.Fatalf("catalog has %d benchmarks, want 36 (18 INT + 18 FP, §5.2)", len(specs))
	}
	ints, _ := Members("int")
	fps, _ := Members("fp")
	if len(ints) != 18 || len(fps) != 18 {
		t.Fatalf("suite split %d/%d, want 18/18", len(ints), len(fps))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate benchmark name %q", s.Name)
		}
		seen[s.Name] = true
	}
	// The benchmarks the paper's discussion leans on must exist.
	for _, n := range []string{"crafty", "vortex", "namd", "astar", "hmmer", "wupwise", "applu", "mgrid", "gamess", "gromacs", "bzip"} {
		if _, err := Resolve(n); err != nil {
			t.Errorf("missing paper benchmark %q", n)
		}
	}
}

// TestByNameUnknown: the catalog's by-name index rejects a name it does
// not hold.
func TestByNameUnknown(t *testing.T) {
	if _, err := Resolve("not-a-benchmark"); err == nil {
		t.Fatal("Resolve accepted an unknown name")
	}
}

// TestAllBenchmarksExecute: every program must run functionally for a
// long stretch without flowing off defined code, with plausible dynamic
// mixes.
func TestAllBenchmarksExecute(t *testing.T) {
	for _, spec := range Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			p := Build(spec)
			e := program.NewExecutor(p)
			var u isa.Uop
			var loads, stores, branches, moves int
			const steps = 30_000
			for i := 0; i < steps; i++ {
				if !e.Next(&u) {
					t.Fatalf("ran off code at step %d", i)
				}
				switch u.Op {
				case isa.Load:
					loads++
				case isa.Store:
					stores++
				case isa.Branch:
					branches++
				case isa.Move:
					moves++
				}
			}
			if loads == 0 || stores == 0 || branches == 0 {
				t.Fatalf("degenerate mix: loads=%d stores=%d branches=%d", loads, stores, branches)
			}
			if spec.MovePct > 0.05 && moves == 0 {
				t.Fatalf("move-configured benchmark produced no moves")
			}
			// Memory stays in the mapped regions.
			if u.IsMemRef() && u.MemAddr > 0x1000_0000 {
				t.Fatalf("wild address %#x", u.MemAddr)
			}
		})
	}
}

// TestDeterminism: building and executing twice must produce identical
// streams (the reproducibility requirement).
func TestDeterminism(t *testing.T) {
	s, _ := Resolve("gcc")
	// build, not Build: the memo would hand back one *Program twice.
	e1 := program.NewExecutor(build(s.withDefaults()))
	e2 := program.NewExecutor(build(s.withDefaults()))
	var a, b isa.Uop
	for i := 0; i < 20_000; i++ {
		e1.Next(&a)
		e2.Next(&b)
		if a != b {
			t.Fatalf("streams diverged at step %d: %v vs %v", i, a, b)
		}
	}
}

// TestBranchOutcomeDiversity: hard-branch benchmarks must have both taken
// and not-taken outcomes at data-dependent sites.
func TestBranchOutcomeDiversity(t *testing.T) {
	s, _ := Resolve("gobmk") // HardBranchPct 0.5
	p := Build(s)
	e := program.NewExecutor(p)
	var u isa.Uop
	outcomes := map[uint64][2]int{} // pc -> {taken, not}
	for i := 0; i < 60_000; i++ {
		e.Next(&u)
		if u.Op == isa.Branch && u.Kind == isa.BrCond {
			o := outcomes[u.PC]
			if u.Taken {
				o[0]++
			} else {
				o[1]++
			}
			outcomes[u.PC] = o
		}
	}
	mixed := 0
	for _, o := range outcomes {
		if o[0] > 10 && o[1] > 10 {
			mixed++
		}
	}
	if mixed == 0 {
		t.Fatal("no branch site with mixed outcomes; hard branches missing")
	}
}

// TestPatternSites: benchmarks with configured rare patterns actually
// contain them (the quota system's guarantee).
func TestPatternSites(t *testing.T) {
	for _, name := range []string{"hmmer", "gamess", "gromacs", "bzip", "wupwise", "applu"} {
		s, _ := Resolve(name)
		p := Build(s)
		var fdLoads, trapLoads int
		for pc := p.Entry(); pc < p.Entry()+uint64(p.NumInsts()*4)+64; pc += 4 {
			in, ok := p.StaticAt(pc)
			if !ok || in.Op != isa.Load || in.AddrReg != isa.IntR(1) {
				continue
			}
			switch {
			case in.Imm >= 2048 && in.Imm < 4096:
				fdLoads++
			case in.Imm >= 512 && in.Imm < 1024:
				trapLoads++
			}
		}
		if s.FalseDepPct > 0 && fdLoads == 0 {
			t.Errorf("%s: no false-dependence sites despite FalseDepPct=%v", name, s.FalseDepPct)
		}
		if s.TrapPct > 0 && trapLoads == 0 {
			t.Errorf("%s: no trap sites despite TrapPct=%v", name, s.TrapPct)
		}
	}
}

// TestMoveWidthMix: the x86_64 story needs non-eliminable (8/16-bit)
// moves in the stream of move-heavy benchmarks.
func TestMoveWidthMix(t *testing.T) {
	s, _ := Resolve("vortex")
	e := program.NewExecutor(Build(s))
	var u isa.Uop
	widths := map[uint8]int{}
	for i := 0; i < 50_000; i++ {
		e.Next(&u)
		if u.Op == isa.Move {
			widths[u.Width]++
		}
	}
	if widths[64] == 0 || widths[32] == 0 {
		t.Fatalf("move widths missing: %v", widths)
	}
}

// BenchmarkBuild measures program construction. It calls the
// unmemoized build: through Build every iteration after the first
// would be a memo hit.
func BenchmarkBuild(b *testing.B) {
	spec, _ := Resolve("gcc")
	spec = spec.withDefaults()
	for i := 0; i < b.N; i++ {
		_ = build(spec)
	}
}
