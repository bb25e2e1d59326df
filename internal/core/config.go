// This file holds the machine configuration (the paper's Table 1) and
// the tracker/latency selection it implies; the package documentation
// lives in core.go with the pipeline itself.
package core

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/moveelim"
	"repro/internal/refcount"
	"repro/internal/smb"
	"repro/internal/storesets"
	"repro/internal/tage"
)

// TrackerKind selects the register reference counting scheme.
type TrackerKind string

// Tracker kinds (§4).
const (
	TrackerISRB      TrackerKind = "isrb"
	TrackerUnlimited TrackerKind = "unlimited"
	TrackerCounters  TrackerKind = "counters"
	TrackerMIT       TrackerKind = "mit"
	TrackerRDA       TrackerKind = "rda"
)

// TrackerConfig selects and sizes the reference counting scheme.
type TrackerConfig struct {
	Kind        TrackerKind
	Entries     int // ISRB/MIT/RDA entries
	CounterBits int // ISRB counter width (§6.3: 3 bits suffice)
}

// DistanceKind selects the SMB distance predictor.
type DistanceKind string

// Distance predictor kinds (§3.1).
const (
	DistanceTAGE DistanceKind = "tage"
	DistanceNoSQ DistanceKind = "nosq"
)

// SMBConfig controls Speculative Memory Bypassing.
type SMBConfig struct {
	Enabled bool
	// LoadLoad generalizes bypassing to load-load pairs (§3).
	LoadLoad bool
	// Predictor picks the Instruction Distance predictor flavour.
	Predictor DistanceKind
	// DDT sizes the Data Dependency Table (Entries == 0: unlimited).
	DDT smb.DDTConfig
	// BypassCommitted allows bypassing from committed instructions still
	// resident in the ROB, with lazy register reclaiming (§3.3).
	BypassCommitted bool
	// TAGEGeometry optionally overrides the TAGE-like distance
	// predictor's history lengths (extension experiments): nil keeps the
	// paper's 2/5/11/27/64 series; a non-nil empty slice selects a
	// PC-indexed base table only.
	TAGEGeometry []int
}

// Config is the full machine configuration.
type Config struct {
	// Widths.
	FetchWidth  int
	RenameWidth int
	IssueWidth  int
	CommitWidth int

	// Window sizes.
	ROBSize int
	IQSize  int
	LQSize  int
	SQSize  int

	PhysRegsPerClass int
	MaxCheckpoints   int

	// Depths: fetch-to-rename and rename-to-dispatch; the paper's core is
	// 19 cycles fetch-to-commit with a 20-cycle minimum branch penalty.
	FrontEndDepth    uint64
	RenameToDispatch uint64

	// STLFLatency is the store-to-load forwarding latency (Table 1: 4).
	STLFLatency uint64

	// Functional units (Table 1): 4 ALU (1c), 1 MulDiv (3c/25c, divide
	// not pipelined), 2 FP (3c), 2 FPMulDiv (5c/10c, divide not
	// pipelined), 2 load/store ports + 1 store-only port.
	NumALU      int
	NumMulDiv   int
	NumFP       int
	NumFPMulDiv int
	NumLdStr    int
	NumStr      int

	Branch    branch.Config
	Mem       cache.HierarchyConfig
	StoreSets storesets.Config

	ME      moveelim.Config
	SMB     SMBConfig
	Tracker TrackerConfig

	// ReclaimFlagFilter enables the Rename-Map flag of §4.3.4 that lets
	// most commits skip the ISRB CAM. It is a port-pressure optimization
	// only; turning it off changes statistics, not behaviour.
	ReclaimFlagFilter bool

	// LazyReclaimLowWater triggers the deferred reclaim scan when fewer
	// than this many registers are free (§3.3 uses rename_width × 2).
	LazyReclaimLowWater int
}

// DefaultConfig mirrors Table 1 with all optimizations OFF (the Figure 4
// baseline).
func DefaultConfig() Config {
	return Config{
		FetchWidth:  8,
		RenameWidth: 8,
		IssueWidth:  6,
		CommitWidth: 8,

		ROBSize: 192,
		IQSize:  60,
		LQSize:  72,
		SQSize:  48,

		PhysRegsPerClass: 256,
		MaxCheckpoints:   64,

		FrontEndDepth:    13,
		RenameToDispatch: 2,

		STLFLatency: 4,

		NumALU:      4,
		NumMulDiv:   1,
		NumFP:       2,
		NumFPMulDiv: 2,
		NumLdStr:    2,
		NumStr:      1,

		Branch:    branch.DefaultConfig(),
		Mem:       cache.DefaultHierarchyConfig(),
		StoreSets: storesets.DefaultConfig(),

		ME: moveelim.Config{Enabled: false, IntOnly: true},
		SMB: SMBConfig{
			Enabled:   false,
			LoadLoad:  true,
			Predictor: DistanceTAGE,
			DDT:       smb.DDTConfig{Entries: 0},
		},
		Tracker: TrackerConfig{Kind: TrackerUnlimited, Entries: 32, CounterBits: 3},

		ReclaimFlagFilter:   true,
		LazyReclaimLowWater: 16,
	}
}

// Canonical returns the configuration with the tracker sizes its
// simulation never reads set to zero. NewTracker is their only reader:
// it sizes the ISRB by both, the MIT and the RDA by Entries alone, and
// the unlimited tracker by neither. Per-register counters keep
// CounterBits only for their storage figure, which no simulated result
// carries, so their simulation reads neither. Configurations with one
// canonical form therefore simulate one machine and give one result.
func (c Config) Canonical() Config {
	switch c.Tracker.Kind {
	case TrackerISRB:
	case TrackerMIT, TrackerRDA:
		c.Tracker.CounterBits = 0
	default:
		c.Tracker.Entries, c.Tracker.CounterBits = 0, 0
	}
	return c
}

// NewTracker instantiates the configured reference counting scheme.
func (c *Config) NewTracker() refcount.Tracker {
	tc := c.Tracker
	switch tc.Kind {
	case TrackerISRB:
		return refcount.NewISRB(tc.Entries, tc.CounterBits)
	case TrackerCounters:
		return refcount.NewPerRegCounters(2*c.PhysRegsPerClass, tc.CounterBits, c.CommitWidth)
	case TrackerMIT:
		return refcount.NewMIT(tc.Entries)
	case TrackerRDA:
		return refcount.NewRDA(tc.Entries)
	default:
		return refcount.NewUnlimited()
	}
}

// ExecLatency returns the execution latency and which unit class a µop
// uses.
func ExecLatency(u *isa.Uop) uint64 {
	switch u.Op {
	case isa.MulDiv:
		if u.Heavy {
			return 25
		}
		return 3
	case isa.FP:
		return 3
	case isa.FPMulDiv:
		if u.Heavy {
			return 10
		}
		return 5
	default: // ALU, Move (non-eliminated), Branch
		return 1
	}
}

// Caps on every value that sizes an allocation in New or in a
// constructor it calls. A configuration arrives from outside the
// program (a regshared request, a scenario file, a gen: grid), and a
// simulator panic is recovered into a per-request error, but a fatal
// out-of-memory is not: these bound what one configuration can make the
// process allocate. Each sits far above every committed configuration;
// a machine with every value at its cap allocates well under 256 MiB.
const (
	maxWindow         = 8192    // ROB, IQ, LQ and SQ entries
	maxPhysRegs       = 16384   // physical registers per class
	maxCheckpoints    = 1024    // in-flight branch checkpoints
	maxFPMulDiv       = 64      // FP multiply/divide units (one busy timer each)
	maxTrackerEntries = 4096    // ISRB, MIT and RDA entries
	maxCounterBits    = 8       // ISRB counter width: refcount.NewISRB asserts 1..8
	maxTableEntries   = 1 << 16 // BTB, RAS, SSIT, LFST and stride-prefetcher entries
	maxDDTEntries     = 1 << 18 // SMB Data Dependency Table entries
	maxLogEntries     = 16      // log2 size of each branch TAGE table
	maxTagBits        = 32      // branch TAGE tag width: History.Fold folds into at most 32 bits
	maxTAGECtrBits    = 8       // branch TAGE counter and useful-counter widths: they are int8 and uint8
	maxCacheKB        = 16384   // per cache level
	maxWays           = 64      // cache and BTB associativity
	maxMSHRs          = 1024    // per cache level
	maxPrefDegree     = 64      // prefetches issued per trigger
	maxDRAMBanks      = 1024    // DRAM ranks × banks per rank
)

// Check reports whether the configuration names a machine the simulator
// can build, as an error value. It is the validation the execution API
// layers (internal/sim's typed ErrBadConfig) surface to callers before
// constructing a core; New itself panics on the same conditions, since
// a caller reaching New with an unchecked bad configuration is a bug.
//
// Every value that sizes an allocation is capped (see maxWindow and
// its siblings) and bounded below wherever its constructor would panic.
// Check does not try to reject every machine that cannot make progress:
// a machine with no ALU, say, is valid and trips the core's commit
// deadlock detector, which the execution API reports as a fault of that
// one request.
func (c *Config) Check() error {
	if c.FetchWidth <= 0 || c.RenameWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0 {
		return fmt.Errorf("non-positive pipeline width (fetch=%d rename=%d issue=%d commit=%d)",
			c.FetchWidth, c.RenameWidth, c.IssueWidth, c.CommitWidth)
	}
	m := &c.Mem
	for _, b := range [...]struct {
		name   string
		v      int
		lo, hi int
	}{
		// Fetch fills its queue only when a whole fetch width fits, so a
		// width of fetchQueueSize or more never fetches.
		{"fetch width", c.FetchWidth, 1, fetchQueueSize - 1},
		{"rob", c.ROBSize, 1, maxWindow},
		{"iq", c.IQSize, 1, maxWindow},
		{"lq", c.LQSize, 1, maxWindow},
		{"sq", c.SQSize, 1, maxWindow},
		{"physical registers per class", c.PhysRegsPerClass, isa.NumArchRegs + 1, maxPhysRegs},
		{"checkpoints", c.MaxCheckpoints, 0, maxCheckpoints},
		{"FP mul/div units", c.NumFPMulDiv, 0, maxFPMulDiv},
		{"tracker entries", c.Tracker.Entries, 0, maxTrackerEntries},
		{"tracker counter bits", c.Tracker.CounterBits, 0, maxCounterBits},
		{"BTB entries", c.Branch.BTBEntries, 0, maxTableEntries},
		{"BTB ways", c.Branch.BTBWays, 1, maxWays},
		{"RAS entries", c.Branch.RASEntries, 0, maxTableEntries},
		{"TAGE base log2 entries", c.Branch.TAGE.LogBaseEntries, 0, maxLogEntries},
		{"TAGE tagged tables", len(c.Branch.TAGE.Tagged), 0, tage.MaxComponents},
		{"TAGE counter bits", c.Branch.TAGE.CounterBits, 1, maxTAGECtrBits},
		{"TAGE useful bits", c.Branch.TAGE.UsefulBits, 0, maxTAGECtrBits},
		{"L1I KB", m.L1I.SizeKB, 0, maxCacheKB},
		{"L1I ways", m.L1I.Ways, 1, maxWays},
		{"L1I MSHRs", m.L1I.MSHRs, 0, maxMSHRs},
		{"L1D KB", m.L1D.SizeKB, 0, maxCacheKB},
		{"L1D ways", m.L1D.Ways, 1, maxWays},
		{"L1D MSHRs", m.L1D.MSHRs, 0, maxMSHRs},
		{"L2 KB", m.L2.SizeKB, 0, maxCacheKB},
		{"L2 ways", m.L2.Ways, 1, maxWays},
		{"L2 MSHRs", m.L2.MSHRs, 0, maxMSHRs},
		{"prefetch table entries", m.PrefTable, 0, maxTableEntries},
		{"prefetch degree", m.PrefDegree, 0, maxPrefDegree},
		{"DRAM ranks × banks", m.DRAM.Ranks * m.DRAM.BanksPerRank, 0, maxDRAMBanks},
		{"SSIT entries", c.StoreSets.SSITEntries, 0, maxTableEntries},
		{"LFST entries", c.StoreSets.LFSTEntries, 0, maxTableEntries},
		{"DDT entries", c.SMB.DDT.Entries, 0, maxDDTEntries},
	} {
		if b.v < b.lo || b.v > b.hi {
			return fmt.Errorf("%s %d out of range %d..%d", b.name, b.v, b.lo, b.hi)
		}
	}
	for i, t := range c.Branch.TAGE.Tagged {
		if t.LogEntries < 0 || t.LogEntries > maxLogEntries {
			return fmt.Errorf("TAGE table %d log2 entries %d out of range 0..%d", i, t.LogEntries, maxLogEntries)
		}
		if t.TagBits < 1 || t.TagBits > maxTagBits {
			return fmt.Errorf("TAGE table %d tag bits %d out of range 1..%d", i, t.TagBits, maxTagBits)
		}
	}
	// A size the scheme's simulation reads must be set: zero entries is
	// not an unlimited table. Canonical zeroes the sizes a scheme does
	// not read, so those may be zero.
	switch t := c.Tracker; t.Kind {
	case "", TrackerUnlimited, TrackerCounters:
	case TrackerISRB, TrackerMIT, TrackerRDA:
		if t.Entries == 0 {
			return fmt.Errorf("%s tracker has 0 entries (0 is not unlimited)", t.Kind)
		}
		if t.Kind == TrackerISRB && t.CounterBits == 0 {
			return fmt.Errorf("isrb tracker has 0 counter bits")
		}
	default:
		return fmt.Errorf("unknown tracker kind %q (known: isrb unlimited counters mit rda)", t.Kind)
	}
	switch c.SMB.Predictor {
	case "", DistanceTAGE, DistanceNoSQ:
	default:
		return fmt.Errorf("unknown SMB distance predictor %q (known: tage nosq)", c.SMB.Predictor)
	}
	return nil
}

// Sanity checks used by New.
func (c *Config) validate() {
	if err := c.Check(); err != nil {
		panic("core: " + err.Error())
	}
}
