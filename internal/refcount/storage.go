package refcount

// This file reproduces the paper's storage arithmetic (§4.2, §4.3.3) in
// closed form, for the storage table `paperfigs -exp storage` prints and
// the trackers' Storage methods that price a scenario's storage report.

// MatrixScheme computes the storage of Roth's 2D reference matrix (§4.2):
// one bit per (ROB entry, physical register) pair, for both register
// classes. For a Haswell-sized machine (192-entry ROB, 168+168 registers)
// this is 2×192×168 bits ≈ 7.8KB.
func MatrixScheme(robEntries, physPerClass, classes int) int {
	return classes * robEntries * physPerClass
}

// SchedulerMatrix computes the baseline matrix-scheduler storage the paper
// contrasts against (0.44KB for a Haswell-sized 60-entry scheduler):
// IQ entries × IQ entries bits.
func SchedulerMatrix(iqEntries int) int {
	return iqEntries * iqEntries
}

// BattleMatrix computes Battle et al.'s reduced matrix (§4.2):
// #preg × max_sharers bits, checkpointed in full.
func BattleMatrix(physRegs, maxSharers int) (cpuBits, checkpointBits int) {
	bits := physRegs * maxSharers
	return bits, bits
}

// ISRBStorage returns the paper's ISRB accounting for a given entry count
// and counter width: entries × (8b tag + valid + 2 counters) CPU bits and
// entries × counterBits checkpoint bits. ISRBStorage(32, 3) = (480, 96),
// the numbers in §6.3 and the abstract.
func ISRBStorage(entries, counterBits int) (cpuBits, checkpointBits int) {
	return entries * (8 + 1 + 2*counterBits), entries * counterBits
}

// RenameMapCheckpointBits is the paper's reference point for checkpoint
// cost (§4.3.3): saving the x86_64 rename map requires at least
// (16 GPRs + 16 SIMD) × 8-bit identifiers = 256 bits.
func RenameMapCheckpointBits() int { return (16 + 16) * 8 }

// CountersCheckpointBits is the storage a checkpoint would need to make
// per-register counters recoverable (§4.2): a few bits for every physical
// register of the machine (336 for Haswell ⇒ 600+ bits at 2 bits each).
func CountersCheckpointBits(physRegs, bitsPerReg int) int {
	return physRegs * bitsPerReg
}

// DDTStorage computes the Data Dependency Table cost (§3.1): entries ×
// (payload + tag). The paper's "base" design point is a 16K-entry DDT with
// 14b tags holding 64-bit virtual addresses (≈156KB); the optimized one is
// 1K entries with 5b tags (≈8.6KB).
func DDTStorage(entries, tagBits, payloadBits int) int {
	return entries * (tagBits + payloadBits)
}

// KB converts bits to kilobytes (1024 bytes).
func KB(bits int) float64 { return float64(bits) / 8 / 1024 }
