package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// fuzzCoreUops is how many µops each FuzzCore input commits before the
// drain: enough to cycle a small ROB through hundreds of recoveries,
// few enough that the committed seeds replay in a couple of seconds.
const fuzzCoreUops = 3000

// fuzzGenName draws a gen: workload from shape: a family and a value
// for every parameter of its schema, floats on a 1/100 grid of their
// range.
func fuzzGenName(shape uint64) string {
	r := rng.New(shape)
	gens := workloads.Generators()
	g := gens[r.Intn(len(gens))]
	parts := make([]string, 0, len(g.Params)+1)
	for _, p := range g.Params {
		if p.Int {
			parts = append(parts, fmt.Sprintf("%s=%d", p.Key, r.Range(int(p.Min), int(p.Max))))
			continue
		}
		v := p.Min + (p.Max-p.Min)*float64(r.Intn(101))/100
		parts = append(parts, fmt.Sprintf("%s=%g", p.Key, v))
	}
	parts = append(parts, fmt.Sprintf("seed=%d", r.Intn(1<<16)))
	return workloads.GenPrefix + g.Family + "?" + strings.Join(parts, "&")
}

// fuzzConfig draws a small machine from machine: windows small enough
// that every structure fills, few checkpoints, a tiny ISRB, and each
// register-sharing mechanism on or off.
func fuzzConfig(machine uint64) Config {
	r := rng.New(machine)
	cfg := DefaultConfig()
	cfg.ROBSize = r.Range(8, 64)
	cfg.IQSize = r.Range(4, 32)
	cfg.LQSize = r.Range(4, 32)
	cfg.SQSize = r.Range(4, 32)
	cfg.MaxCheckpoints = r.Range(1, 4)
	cfg.PhysRegsPerClass = r.Range(isa.NumArchRegs+1, 96)
	cfg.ME.Enabled = r.Bool(0.5)
	cfg.SMB.Enabled = r.Bool(0.5)
	cfg.SMB.BypassCommitted = cfg.SMB.Enabled && r.Bool(0.5)
	cfg.Tracker = TrackerConfig{Kind: TrackerISRB, Entries: r.Range(1, 8), CounterBits: r.Range(1, 3)}
	return cfg
}

// FuzzCore runs a random gen: program on a random small machine and
// checks the core against the functional executor: it must not panic,
// DrainAndAudit must pass, and after the drain every architectural
// register the committed prefix wrote must be mapped, in the commit
// map, to a ready physical register holding the result the executor
// gave the last committed µop that wrote it. The register file stores
// values, so this checks register sharing and reclaim semantically: a
// register reclaimed while still mapped, or shared onto the wrong
// producer, holds some other µop's value.
//
// The committed seeds under testdata/fuzz/FuzzCore always replay;
// without -short the test also replays a further generated set.
func FuzzCore(f *testing.F) {
	if !testing.Short() {
		r := rng.New(0xC0DE)
		for i := 0; i < 24; i++ {
			f.Add(r.Uint64(), r.Uint64())
		}
	}
	f.Fuzz(func(t *testing.T, shape, machine uint64) {
		name := fuzzGenName(shape)
		cfg := fuzzConfig(machine)
		if err := cfg.Check(); err != nil {
			t.Skip(err)
		}
		spec, err := workloads.Resolve(name)
		if err != nil {
			t.Skip(err)
		}
		desc := fmt.Sprintf("%s on rob=%d iq=%d lq=%d sq=%d ckpts=%d regs=%d me=%v smb=%v lazy=%v isrb=%d/%d",
			name, cfg.ROBSize, cfg.IQSize, cfg.LQSize, cfg.SQSize, cfg.MaxCheckpoints, cfg.PhysRegsPerClass,
			cfg.ME.Enabled, cfg.SMB.Enabled, cfg.SMB.BypassCommitted, cfg.Tracker.Entries, cfg.Tracker.CounterBits)

		prog := workloads.Build(spec)
		c := New(cfg, prog)
		c.Run(0, fuzzCoreUops)
		if err := c.DrainAndAudit(); err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		checkCommittedRegisters(t, desc, c, prog)
	})
}

// checkCommittedRegisters replays the core's committed prefix on a
// fresh executor and compares every architectural register it wrote
// with the physical register the commit map holds for it. A µop writes
// the register isa.Uop.HasDest names, exactly as the core renames it:
// stores and branches built without an explicit destination carry
// isa.Reg's zero value, r0, so they count as writing r0 their result.
//
// One relaxation: a 32-bit move zero-extends, but an eliminated one
// shares its source's register, which keeps the source's full 64 bits.
// The timing model reads register values only to validate SMB
// bypasses, so the core never corrects them; a register whose last
// writer was a 32-bit move, or a 64-bit move of such a register, is
// compared on its low 32 bits.
func checkCommittedRegisters(t *testing.T, desc string, c *Core, prog *program.Program) {
	t.Helper()
	var (
		want    [2][isa.NumArchRegs]uint64
		written [2][isa.NumArchRegs]bool
		low32   [2][isa.NumArchRegs]bool
	)
	ex := program.NewExecutor(prog)
	var u isa.Uop
	for i := uint64(0); i < c.stats.Committed; i++ {
		if !ex.Next(&u) {
			t.Fatalf("%s: executor ran off code after %d of %d committed µops", desc, i, c.stats.Committed)
		}
		if !u.HasDest() {
			continue
		}
		d := u.Dest
		want[d.Class][d.Index] = u.Value
		written[d.Class][d.Index] = true
		switch {
		case u.Op == isa.Move && u.Width == 32:
			low32[d.Class][d.Index] = true
		case u.Op == isa.Move && u.Width == 64 && u.Src[0].Valid():
			low32[d.Class][d.Index] = low32[u.Src[0].Class][u.Src[0].Index]
		default:
			low32[d.Class][d.Index] = false
		}
	}
	for class := range written {
		for i, w := range written[class] {
			if !w {
				continue
			}
			r := isa.Reg{Class: isa.RegClass(class), Index: uint8(i)}
			p := c.rf.CRM.Get(r)
			if !c.rf.Ready(p) {
				t.Fatalf("%s: after %d µops, %v maps to %v, which is not ready", desc, c.stats.Committed, r, p)
			}
			got, exp := c.rf.Value(p), want[class][i]
			if got != exp && !(low32[class][i] && uint32(got) == uint32(exp)) {
				t.Fatalf("%s: after %d µops, %v maps to %v holding %#x, executor computed %#x",
					desc, c.stats.Committed, r, p, got, exp)
			}
		}
	}
}
