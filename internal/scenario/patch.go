package scenario

import (
	"fmt"

	"repro/internal/core"
)

// Patch is a declarative, partial machine-configuration mutation: every
// field is optional, and only the fields present in the spec's JSON are
// applied. Patches compose — a cell's configuration is the stack
// default-config → spec base → shared axis values → spec opt →
// non-shared axis values, each layer applied in order.
//
// The field set deliberately mirrors the knobs the paper's evaluation
// turns (plus the window/width knobs the extension scenarios sweep); it
// is the schema of the `.scenario` files, so additions must keep old
// specs parsing.
type Patch struct {
	// Optimization toggles.
	ME              *bool `json:"me,omitempty"`        // Move Elimination (§2)
	SMB             *bool `json:"smb,omitempty"`       // Speculative Memory Bypassing (§3)
	LoadLoad        *bool `json:"loadload,omitempty"`  // SMB load-load pairs (§3)
	BypassCommitted *bool `json:"committed,omitempty"` // lazy reclaim (§3.3)

	// Distance predictor and DDT (§3.1).
	Predictor    *string `json:"pred,omitempty"`       // "tage" | "nosq"
	TAGEGeometry *[]int  `json:"tagegeom,omitempty"`   // history lengths ([] = PC-only)
	DDTEntries   *int    `json:"ddt,omitempty"`        // 0 = unlimited
	DDTTagBits   *int    `json:"ddttagbits,omitempty"` // partial tag width

	// Reference-counting scheme (§4). Setting "tracker" resets the whole
	// TrackerConfig to the named kind with zero entries/counter bits, so
	// a patch {"tracker":"isrb","entries":24,"ctrbits":3} builds exactly
	// {ISRB,24,3} regardless of what earlier layers chose.
	Tracker     *string `json:"tracker,omitempty"` // isrb|unlimited|counters|mit|rda
	Entries     *int    `json:"entries,omitempty"`
	CounterBits *int    `json:"ctrbits,omitempty"`

	// Window sizes and widths.
	ROBSize     *int `json:"rob,omitempty"`
	IQSize      *int `json:"iq,omitempty"`
	LQSize      *int `json:"lq,omitempty"`
	SQSize      *int `json:"sq,omitempty"`
	PhysRegs    *int `json:"physregs,omitempty"` // per class
	Checkpoints *int `json:"checkpoints,omitempty"`
	FetchWidth  *int `json:"fetchwidth,omitempty"`
	RenameWidth *int `json:"renamewidth,omitempty"`
	IssueWidth  *int `json:"issuewidth,omitempty"`
	CommitWidth *int `json:"commitwidth,omitempty"`

	// Memory timing.
	STLFLatency *uint64 `json:"stlf,omitempty"` // store-to-load forwarding cycles

	// Reclaim plumbing (§4.3.4, §3.3).
	ReclaimFlagFilter   *bool `json:"reclaimflag,omitempty"`
	LazyReclaimLowWater *int  `json:"lazylowwater,omitempty"`
}

// Validate rejects field values the simulator would refuse or silently
// misread: unknown tracker/predictor names and negative sizes.
func (p *Patch) Validate() error {
	if p.Tracker != nil {
		if err := core.TrackerKind(*p.Tracker).Check(); err != nil {
			return err
		}
	}
	if p.Predictor != nil && *p.Predictor != "tage" && *p.Predictor != "nosq" {
		return fmt.Errorf("unknown distance predictor %q (known: tage nosq)", *p.Predictor)
	}
	if p.CounterBits != nil && *p.CounterBits > 8 {
		return fmt.Errorf("ctrbits %d out of range (ISRB counters are 1..8 bits wide)", *p.CounterBits)
	}
	for _, f := range []struct {
		name string
		v    *int
	}{
		{"entries", p.Entries}, {"ctrbits", p.CounterBits}, {"ddt", p.DDTEntries},
		{"ddttagbits", p.DDTTagBits}, {"rob", p.ROBSize}, {"iq", p.IQSize},
		{"lq", p.LQSize}, {"sq", p.SQSize}, {"physregs", p.PhysRegs},
		{"checkpoints", p.Checkpoints}, {"fetchwidth", p.FetchWidth},
		{"renamewidth", p.RenameWidth}, {"issuewidth", p.IssueWidth},
		{"commitwidth", p.CommitWidth}, {"lazylowwater", p.LazyReclaimLowWater},
	} {
		if f.v != nil && *f.v < 0 {
			return fmt.Errorf("negative %s: %d", f.name, *f.v)
		}
	}
	return nil
}

// Apply mutates cfg in place with every field the patch carries.
func (p *Patch) Apply(cfg *core.Config) {
	if p.ME != nil {
		cfg.ME.Enabled = *p.ME
	}
	if p.SMB != nil {
		cfg.SMB.Enabled = *p.SMB
	}
	if p.LoadLoad != nil {
		cfg.SMB.LoadLoad = *p.LoadLoad
	}
	if p.BypassCommitted != nil {
		cfg.SMB.BypassCommitted = *p.BypassCommitted
	}
	if p.Predictor != nil {
		if *p.Predictor == "nosq" {
			cfg.SMB.Predictor = core.DistanceNoSQ
		} else {
			cfg.SMB.Predictor = core.DistanceTAGE
		}
	}
	if p.TAGEGeometry != nil {
		cfg.SMB.TAGEGeometry = append([]int{}, (*p.TAGEGeometry)...)
	}
	if p.DDTEntries != nil {
		cfg.SMB.DDT.Entries = *p.DDTEntries
	}
	if p.DDTTagBits != nil {
		cfg.SMB.DDT.TagBits = *p.DDTTagBits
	}
	if p.Tracker != nil {
		cfg.Tracker = core.TrackerConfig{Kind: core.TrackerKind(*p.Tracker)}
	}
	if p.Entries != nil {
		cfg.Tracker.Entries = *p.Entries
	}
	if p.CounterBits != nil {
		cfg.Tracker.CounterBits = *p.CounterBits
	}
	if p.ROBSize != nil {
		cfg.ROBSize = *p.ROBSize
	}
	if p.IQSize != nil {
		cfg.IQSize = *p.IQSize
	}
	if p.LQSize != nil {
		cfg.LQSize = *p.LQSize
	}
	if p.SQSize != nil {
		cfg.SQSize = *p.SQSize
	}
	if p.PhysRegs != nil {
		cfg.PhysRegsPerClass = *p.PhysRegs
	}
	if p.Checkpoints != nil {
		cfg.MaxCheckpoints = *p.Checkpoints
	}
	if p.FetchWidth != nil {
		cfg.FetchWidth = *p.FetchWidth
	}
	if p.RenameWidth != nil {
		cfg.RenameWidth = *p.RenameWidth
	}
	if p.IssueWidth != nil {
		cfg.IssueWidth = *p.IssueWidth
	}
	if p.CommitWidth != nil {
		cfg.CommitWidth = *p.CommitWidth
	}
	if p.STLFLatency != nil {
		cfg.STLFLatency = *p.STLFLatency
	}
	if p.ReclaimFlagFilter != nil {
		cfg.ReclaimFlagFilter = *p.ReclaimFlagFilter
	}
	if p.LazyReclaimLowWater != nil {
		cfg.LazyReclaimLowWater = *p.LazyReclaimLowWater
	}
}
