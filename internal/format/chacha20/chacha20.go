// Package chacha20 detects raw ChaCha20 cipher states in memory. A live
// ChaCha state is sixteen little-endian 32-bit words: the four "expand
// 32-byte k" sigma constants, eight key words, a block counter, and three
// nonce words (RFC 8439 layout; the counter/nonce split varies by
// implementation but the first four words never do). The sigma prefix is
// 128 bits of known plaintext — a far stronger anchor than the AES
// key-schedule litmus — so detection is a straight Hamming comparison
// with a decay tolerance.
//
// States are assumed word-aligned (they are uint32 arrays in every real
// implementation), so each 64-byte block contributes sixteen candidate
// start offsets. A state that starts mid-block continues into the next
// block; those tails are fetched through the attack's View so the probe
// still works block-at-a-time over scrambled dumps.
package chacha20

import (
	"encoding/binary"
	"math/bits"

	"coldboot/internal/chacha"
	"coldboot/internal/format"
)

// Name is the registered format name.
const Name = "chacha20"

// StateBytes is the in-memory footprint of one ChaCha state.
const StateBytes = 64

// keyBytes is the length of the key words 4..11 of a state hold.
const keyBytes = 32

// DefaultTolerance is the bit-flip budget across the four sigma words
// when the caller passes no tolerance. Random data matches 128 known
// bits within 8 flips with probability ~2^-94, so false positives are
// not a concern even on multi-GiB dumps.
const DefaultTolerance = 8

var sigma = chacha.Sigma()

// Scanner locates ChaCha20 states by their sigma constants.
type Scanner struct{}

func init() { format.Register(Scanner{}) }

// Name returns "chacha20".
func (Scanner) Name() string { return Name }

// Width returns the candidate width in bytes (the 64-byte state).
func (Scanner) Width() int { return StateBytes }

// KeyBytes returns the length of a recovered ChaCha20 key (32 bytes).
func (Scanner) KeyBytes() int { return keyBytes }

// ProbeBlock probes one descrambled 64-byte block for state starts at
// every word alignment. tolerance <= 0 selects DefaultTolerance. The
// no-hit path performs no allocations: the word-0 quick filter rejects
// random words with probability ~1-2^-18 before any buffering happens.
func (s Scanner) ProbeBlock(block []byte, absOff int, view format.View, tolerance int, emit func(format.Finding)) {
	if tolerance <= 0 {
		tolerance = DefaultTolerance
	}
	for o := 0; o+4 <= len(block); o += 4 {
		w0 := binary.LittleEndian.Uint32(block[o:])
		if bits.OnesCount32(w0^sigma[0]) > tolerance {
			continue
		}
		tryState(block, o, absOff, view, tolerance, emit)
	}
}

// tryState checks the full sigma prefix for a candidate state starting at
// in-block offset o, pulling the cross-block tail through view when the
// state straddles the boundary, and emits a Finding carrying the 32-byte
// key (state words 4–11).
func tryState(block []byte, o, absOff int, view format.View, tol int, emit func(format.Finding)) {
	var tail [StateBytes]byte
	st := block[o:]
	if len(st) < StateBytes {
		n := copy(tail[:], st)
		if view == nil || !view.ReadDescrambled(absOff+len(block), tail[n:]) {
			return
		}
		st = tail[:]
	}
	d := 0
	for i := 0; i < 4; i++ {
		d += bits.OnesCount32(binary.LittleEndian.Uint32(st[4*i:]) ^ sigma[i])
		if d > tol {
			return
		}
	}
	key := make([]byte, keyBytes)
	copy(key, st[16:48])
	emit(format.Finding{
		Format:   Name,
		Offset:   absOff + o,
		Key:      key,
		Score:    1 - float64(d)/128,
		Distance: d,
	})
}
