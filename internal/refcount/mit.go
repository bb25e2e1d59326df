package refcount

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/regfile"
)

// MIT models Intel's Multiple Instantiation Table (Raikin et al. patent,
// §4.2): a small fully-associative structure allocated on move
// elimination, conceptually holding one bit per architectural register.
// Because its tracking is keyed on architectural names, it fundamentally
// cannot support SMB — the store's source architectural register may
// already be re-renamed when the load is renamed — so TryShare rejects
// KindSMB, which is the capability gap the paper highlights.
//
// The patent leaves misprediction recovery under-specified; to keep the
// comparison about *eligibility and storage* rather than about a recovery
// scheme Intel never published, the MIT here reuses the ISRB's provably
// correct dual-counter recovery while reporting MIT-style storage: each
// checkpoint must hold the full per-entry architectural bit-vector
// (#arch_reg bits per entry, vs. the ISRB's n-bit referenced counter).
type MIT struct {
	ISRB
}

// NewMIT builds a MIT with the given number of entries (the patent
// suggests around 8).
func NewMIT(entries int) *MIT {
	return &MIT{ISRB: *NewISRB(entries, 4)}
}

// Name implements Tracker.
func (m *MIT) Name() string { return fmt.Sprintf("MIT-%d", m.limit) }

// TryShare implements Tracker; SMB shares are rejected by construction.
func (m *MIT) TryShare(p regfile.PhysReg, kind Kind, dst, src isa.Reg) bool {
	if kind == KindSMB {
		m.stats.ShareFailsKind++
		return false
	}
	return m.ISRB.TryShare(p, kind, dst, src)
}

// Storage implements Tracker with the patent's accounting: per entry an
// 8-bit physical register tag, a valid bit and one bit per architectural
// register (2×16 for x86_64); per checkpoint the full bit-vector per entry
// (§4.2: "it requires more checkpoint storage per entry than the scheme we
// propose (#arch_reg bits per entry)").
func (m *MIT) Storage() StorageCost {
	archBits := 2 * isa.NumArchRegs
	return StorageCost{
		CPUBits:        m.limit * (8 + 1 + archBits),
		CheckpointBits: m.limit * archBits,
	}
}

var _ Tracker = (*MIT)(nil)
