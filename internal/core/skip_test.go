package core

// Stepped-twin tests for runUntil's quiet-cycle skip: a core run through
// Run, which skips the cycles in which no stage can act, must end in
// exactly the state of a twin core stepped one Cycle() per clock.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/refcount"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// stepUntil is runUntil without the skip: one Cycle() per clock, under
// the same commit deadlock detector.
func stepUntil(c *Core, committedTarget uint64) {
	lastCommitted := c.stats.Committed
	stuck := uint64(0)
	for c.stats.Committed < committedTarget {
		c.Cycle()
		if c.stats.Committed == lastCommitted {
			stuck++
			if stuck > deadlockCycles {
				panic(fmt.Sprintf("core: no commit for %d cycles at cycle %d (%s)", stuck, c.cycle, c.debugState()))
			}
		} else {
			stuck = 0
			lastCommitted = c.stats.Committed
		}
	}
}

// stepRun is Run over stepUntil.
func stepRun(c *Core, warmup, measure uint64) {
	stepUntil(c, c.stats.Committed+warmup)
	c.stats.reset()
	start := c.cycle
	stepUntil(c, c.stats.Committed+measure)
	c.stats.Cycles = c.cycle - start
}

// twinState is everything a run reports, plus the clock.
type twinState struct {
	cycle   uint64
	stats   Stats
	tracker refcount.Stats
	me      [4]uint64
	mem     [3][6]uint64
	dram    [5]uint64
}

func stateOf(c *Core) twinState {
	s := twinState{cycle: c.cycle, stats: c.stats, tracker: *c.tracker.Stats()}
	s.me = [4]uint64{c.me.Candidates, c.me.Eliminated, c.me.TrackerRejected, c.me.SelfMoves}
	for i, l := range []*cache.Cache{c.mem.L1I, c.mem.L1D, c.mem.L2} {
		s.mem[i] = [6]uint64{l.Accesses, l.Misses, l.Evictions, l.Writebacks, l.MSHRStalls, l.MergedMiss}
	}
	d := c.mem.Mem
	s.dram = [5]uint64{d.Reads, d.Writes, d.RowHits, d.RowMisses, d.RowConfl}
	return s
}

// twinRun runs prog on cfg under Run and, on a twin core, under
// stepRun. Both must report the same state, or fault with the same
// message. It returns the core that ran under Run and its fault ("" when
// it ran to the end).
func twinRun(t *testing.T, desc string, cfg Config, prog *program.Program, warmup, measure uint64) (*Core, string) {
	t.Helper()
	run := func(f func(*Core)) (c *Core, fault string) {
		c = New(cfg, prog)
		defer func() {
			if v := recover(); v != nil {
				fault = fmt.Sprint(v)
			}
		}()
		f(c)
		return c, ""
	}
	c, fault := run(func(c *Core) { c.Run(warmup, measure) })
	twin, twinFault := run(func(c *Core) { stepRun(c, warmup, measure) })
	if fault != twinFault {
		t.Fatalf("%s: skipping core fault %q, stepped core fault %q", desc, fault, twinFault)
	}
	if got, want := stateOf(c), stateOf(twin); got != want {
		t.Fatalf("%s: skipping core\n%+v\nstepped core\n%+v", desc, got, want)
	}
	return c, fault
}

// TestQuietSkipMatchesSteppedCore replays generated (program, machine)
// draws, like FuzzCore's but over all five tracker schemes and with a
// warmup, on a skipping core and a stepped twin. A third of the draws
// reclaim lazily with no low-water mark, so that rename meets an empty
// free list that lazy reclaim can refill.
func TestQuietSkipMatchesSteppedCore(t *testing.T) {
	kinds := []TrackerKind{TrackerISRB, TrackerUnlimited, TrackerCounters, TrackerMIT, TrackerRDA}
	r := rng.New(0x5EED)
	for i := 0; i < 300; i++ {
		shape, machine := r.Uint64(), r.Uint64()
		name := fuzzGenName(shape)
		cfg := fuzzConfig(machine)
		cfg.Tracker.Kind = kinds[i%len(kinds)]
		if i%3 == 0 {
			cfg.SMB.Enabled, cfg.SMB.BypassCommitted = true, true
			cfg.LazyReclaimLowWater = 0
		}
		warmup := uint64(r.Intn(1000))
		spec, err := workloads.Resolve(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		desc := fmt.Sprintf("draw %d (%#x, %#x): %s on %s, warmup %d", i, shape, machine, name, cfg.Tracker.Kind, warmup)
		twinRun(t, desc, cfg, workloads.Build(spec), warmup, fuzzCoreUops)
	}
}

// TestQuietSkipMatchesSteppedCoreInRecovery reaches the two recovery
// paths the draws above never do, on a skipping core and a stepped twin
// under every scheme: the §4.3.1 recovery free, on the directed program
// of TestStatsIgnoreRecoveryFreeOrder with eager reclaim, and the SMB
// validation flush at commit, on applu with lazy reclaim.
func TestQuietSkipMatchesSteppedCoreInRecovery(t *testing.T) {
	spec, err := workloads.Resolve("applu")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name            string
		prog            *program.Program
		lazy            bool
		warmup, measure uint64
		path            string
		count           func(*Core) uint64
	}{
		{"wrong-path frees", wrongPathFreesProgram(), false, 2_000, 40_000,
			"RecoveryFrees", func(c *Core) uint64 { return c.tracker.Stats().RecoveryFrees }},
		{"applu", workloads.Build(spec), true, 1_000, 20_000,
			"BypassMispredicts", func(c *Core) uint64 { return c.stats.BypassMispredicts }},
	} {
		reached := uint64(0)
		for _, kind := range []TrackerKind{TrackerISRB, TrackerUnlimited, TrackerCounters, TrackerMIT, TrackerRDA} {
			cfg := DefaultConfig()
			cfg.ME.Enabled = true
			cfg.SMB.Enabled = true
			cfg.SMB.BypassCommitted = tc.lazy
			cfg.Tracker = TrackerConfig{Kind: kind, Entries: 16, CounterBits: 2}
			desc := fmt.Sprintf("%s on %s", kind, tc.name)
			c, fault := twinRun(t, desc, cfg, tc.prog, tc.warmup, tc.measure)
			if fault != "" {
				t.Fatalf("%s: %s", desc, fault)
			}
			reached += tc.count(c)
		}
		if reached == 0 {
			t.Errorf("%s: %s is 0 under every scheme, so the twins never took the path", tc.name, tc.path)
		}
	}
}

// TestQuietSkipKeepsTheDeadlockDetector: on a machine with no
// checkpoint, rename stalls for good at the first branch. When fetch
// predicts that branch right, it fills its queue with the correct path
// behind it, and every cycle after the ROB drains is quiet. The skip
// stops short of the commit deadlock detector, which fires at the cycle
// and with the state it does on a stepped core.
func TestQuietSkipKeepsTheDeadlockDetector(t *testing.T) {
	prog := loopProgram(func(b *program.Builder) {
		// Never taken: r0 counts loop iterations.
		b.EmitBranchTo(program.SInst{Op: isa.Branch, Kind: isa.BrCond, Cond: program.CondBitSet,
			Src: [2]isa.Reg{isa.IntR(0)}, Imm: 63, Width: 64}, "skip")
		for i := 0; i < 2*fetchQueueSize; i++ {
			b.Emit(program.SInst{Op: isa.ALU, Sem: program.SemAddImm,
				Src: [2]isa.Reg{isa.IntR(2)}, Dest: isa.IntR(2), Imm: 1, Width: 64})
		}
		b.Label("skip")
	})
	cfg := DefaultConfig()
	cfg.MaxCheckpoints = 0
	_, fault := twinRun(t, "a branch without a checkpoint", cfg, prog, 0, 1000)
	if !strings.Contains(fault, "no commit for 200001 cycles") {
		t.Fatalf("fault %q, want the deadlock detector", fault)
	}
}
