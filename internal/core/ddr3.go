package core

// DDR3 baseline attack, after Bauer et al. ("Lest We Forget: Cold-Boot
// Attacks on Scrambled DDR3 Memory"), which the paper reproduces as its
// point of comparison. The DDR3 scrambler's 16-key pool and affine key
// structure allow two much simpler attacks than the DDR4 pipeline:
//
//   - frequency analysis: zeros dominate memory content, so the most
//     frequent stored value within each address class IS that class's key;
//   - the universal reboot key: the XOR of two boots' dumps of the same
//     memory collapses to a single 64-byte key for the entire memory.

import (
	"context"
	"fmt"
)

// DDR3KeyCount is the DDR3 scrambler pool size.
const DDR3KeyCount = 16

// ddr3PollBlocks is how many 64-byte blocks the DDR3 passes process between
// context polls: 16 Ki blocks = 1 MiB, a few hundred microseconds of work.
const ddr3PollBlocks = 1 << 14

// MineDDR3Keys recovers the 16 per-class scrambler keys from a
// scrambled DDR3 dump by frequency analysis: for each block-index residue
// class modulo 16, the most common stored 64-byte value is
// (zero XOR key) = key. The pass over the dump polls ctx every
// ddr3PollBlocks blocks; a cancelled mine returns ctx.Err().
func MineDDR3Keys(ctx context.Context, dump []byte) ([DDR3KeyCount][]byte, error) {
	var keys [DDR3KeyCount][]byte
	if len(dump)%BlockBytes != 0 {
		return keys, fmt.Errorf("core: dump length %d not block aligned", len(dump))
	}
	counts := make([]map[string]int, DDR3KeyCount)
	for i := range counts {
		counts[i] = make(map[string]int)
	}
	nBlocks := len(dump) / BlockBytes
	for b := 0; b < nBlocks; b++ {
		if b%ddr3PollBlocks == 0 {
			if err := ctx.Err(); err != nil {
				return keys, err
			}
		}
		cls := b % DDR3KeyCount
		counts[cls][string(dump[b*BlockBytes:(b+1)*BlockBytes])]++
	}
	for cls := range keys {
		best, bestN := "", -1
		for v, n := range counts[cls] {
			if n > bestN || (n == bestN && v < best) {
				best, bestN = v, n
			}
		}
		if bestN <= 0 {
			return keys, fmt.Errorf("core: no blocks in class %d", cls)
		}
		keys[cls] = []byte(best)
	}
	return keys, nil
}

// UniversalRebootKey recovers the single 64-byte key that a DDR3
// reboot XOR image is scrambled with (Figure 3c): the most frequent 64-byte
// block value in xorDump. For unchanged memory regions the data cancels
// exactly, so the universal key appears wherever content was stable across
// boots. The frequency pass polls ctx every ddr3PollBlocks blocks.
func UniversalRebootKey(ctx context.Context, xorDump []byte) ([]byte, error) {
	if len(xorDump)%BlockBytes != 0 || len(xorDump) == 0 {
		return nil, fmt.Errorf("core: bad XOR dump length %d", len(xorDump))
	}
	counts := make(map[string]int)
	for b := 0; b < len(xorDump)/BlockBytes; b++ {
		if b%ddr3PollBlocks == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		counts[string(xorDump[b*BlockBytes:(b+1)*BlockBytes])]++
	}
	best, bestN := "", -1
	for v, n := range counts {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return []byte(best), nil
}
