package core

import (
	"coldboot/internal/aes"
)

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
// enumeration is not.

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

// repairWindowGroundScratch is repairWindowScratch restricted to
// ground-state suspect positions, which affords a deeper search (up to
// maxFlips = 3) under a verification budget: flips in positions that do
// not feed the in-block prediction stay "consistent", so every such
// candidate costs a schedule score — the budget bounds that. The search
// order is the unflipped window, then every depth from 1 to maxFlips in
// turn, each enumerating suspect combinations depth-first in ascending
// position order. The first consistent candidate to score >= minScore is
// returned with its exact score and ok; when none does before the budget
// runs out, ok is false. block is the descrambled 64-byte block
// containing the hit; dump and groundDump are the full captures the
// suspects are derived from. The returned master aliases rs.best and is
// valid until the scratch is reused.
func repairWindowGroundScratch(rs *repairScratch, dump, groundDump []byte, keys KeyDirectory, block []byte, blockIdx int, hit ScheduleHit, v aes.Variant, maxFlips int, minScore float64) ([]byte, float64, bool) {
	r := newRepairer(rs, dump, keys, block, blockIdx, hit, v, minScore)
	if r.fixed > r.budget {
		return nil, 0, false // keyless blocks alone sink every candidate
	}
	mask := SuspectMask(dump, groundDump, blockIdx)

	// Collect suspect bit positions inside the window (reusing the scratch
	// slice across hits).
	winLo := 4 * hit.WordOffset * 8
	winHi := winLo + 4*r.nk*8
	suspects := rs.suspects[:0]
	for b := winLo; b < winHi; b++ {
		if mask[b/8]&(1<<uint(b%8)) != 0 {
			suspects = append(suspects, b)
		}
	}
	rs.suspects = suspects

	if r.try() {
		return rs.best[:v.KeyBytes()], r.score, true
	}
	const verifyBudget = 1500
	budget := verifyBudget
	for depth := 1; depth <= maxFlips && budget > 0; depth++ {
		if r.groundSearch(suspects, 0, depth, &budget) {
			return rs.best[:v.KeyBytes()], r.score, true
		}
	}
	return nil, 0, false
}

// groundSearch enumerates every combination of remaining more flips from
// suspects[startIdx:], depth-first, with the in-block prediction as a
// pruner and *budget as the hard cost bound. It reports whether a
// candidate was accepted (its master is then in rs.best).
func (r *repairer) groundSearch(suspects []int, startIdx, remaining int, budget *int) bool {
	for i := startIdx; i < len(suspects) && *budget > 0; i++ {
		r.flip(suspects[i])
		if r.consistent() {
			*budget--
			if r.try() {
				return true
			}
		}
		if remaining > 1 && r.groundSearch(suspects, i+1, remaining-1, budget) {
			return true
		}
		r.flip(suspects[i])
	}
	return false
}
