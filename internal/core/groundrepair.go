package core

// Ground-state-aware decay repair (after Halderman et al.'s observation
// that DRAM decay is asymmetric, and the paper's §III-A profiling
// technique).
//
// A decayed bit always flips TOWARD its cell's ground state. The attacker
// can profile ground states with the dump machine itself: take the attack
// dump D = raw ⊕ K2, let the DIMM decay fully, and dump again WITHOUT
// rebooting: G = ground ⊕ K2. The keystream cancels in the comparison —
// a raw bit can have decayed only where D and G agree — so the repair
// search space shrinks to the "suspect" positions, typically half the
// window, which makes three-flip correction tractable where blind
// enumeration is not. repairWindowScratch runs that search when given the
// ground dump.

// SuspectMask returns, for the 64-byte block at blockIdx, a bitmask (one
// bit per data bit, LSB-first per byte) of positions where decay COULD have
// occurred: dump and groundDump agree there.
func SuspectMask(dump, groundDump []byte, blockIdx int) [BlockBytes]byte {
	var mask [BlockBytes]byte
	off := blockIdx * BlockBytes
	for i := 0; i < BlockBytes; i++ {
		// A bit is suspect where the dump already equals the ground read:
		// XOR gives 0 there, so invert.
		mask[i] = ^(dump[off+i] ^ groundDump[off+i])
	}
	return mask
}
