package core

import (
	"math/bits"

	"coldboot/internal/aes"
)

// ScheduleHit records one place where a descrambled 64-byte block was found
// to contain consecutive AES key-schedule words.
type ScheduleHit struct {
	// WordOffset is the window position inside the block, in 4-byte words
	// (0..15).
	WordOffset int
	// ScheduleIndex is the absolute key-schedule word index the window was
	// matched at (0..ScheduleWords-Nk).
	ScheduleIndex int
	// VerifiedWords is how many subsequent schedule words were predicted
	// and compared inside the block.
	VerifiedWords int
	// Distance is the hamming distance between predicted and observed
	// verification words.
	Distance int
}

// MinVerifyWords is the minimum number of predicted schedule words that must
// be verifiable inside the block for a trial to count. Two words = 64
// compared bits, enough to make chance matches negligible.
const MinVerifyWords = 2

// DefaultAESTolerance is the default bit-flip budget for the AES litmus
// verification compare.
const DefaultAESTolerance = 6

// AESLitmus checks whether a single descrambled 64-byte block contains a
// run of AES key-schedule words, per the paper's insight that at least
// three consecutive round keys of an in-memory schedule always lie fully
// inside some 64-byte block. It slides an Nk-word window across the block
// (assuming the 4-byte alignment real schedules have), tries every possible
// absolute schedule position for the window, predicts the following words
// with a partial key expansion, and compares them — all without touching
// any neighbouring block.
//
// Returned hits are those whose prediction matched within tolerance bits.
func AESLitmus(block []byte, v aes.Variant, tolerance int) []ScheduleHit {
	if len(block) != BlockBytes {
		panic("core: AES litmus block must be 64 bytes")
	}
	return aesLitmusWords(aes.BytesToWords(block), v, tolerance, nil)
}

// aesLitmusWords is AESLitmus on a pre-converted word view, appending hits
// onto the caller's slice — the hunt workers reuse both the word buffer and
// the hit slice across every (block, key) pair. The hit set is identical to
// the plain nested scan's.
func aesLitmusWords(words []uint32, v aes.Variant, tolerance int, hits []ScheduleHit) []ScheduleHit {
	nk := v.Nk()
	total := v.ScheduleWords()
	const blockWords = BlockBytes / 4
	for j := 0; j+nk+MinVerifyWords <= blockWords; j++ {
		maxVerify := blockWords - j - nk
		// First-word prefilter: the first predicted word of trial (j, a) is
		// words[j] ^ f(words[j+nk-1], a+nk), compared against words[j+nk].
		// Its distance depends on a only through the congruence class of
		// a+nk mod nk (plus the rcon byte in the rotate class), so the class
		// distances are computed once per window position j and almost every
		// a is rejected with two table lookups instead of a full prediction
		// walk. A trial is skipped exactly when predictAndCompare would fail
		// on its first compared word, so the hit set is unchanged.
		prev := words[j+nk-1]
		base0 := words[j] ^ words[j+nk]
		dIdent := bits.OnesCount32(base0 ^ prev)
		rotBase := base0 ^ aes.SubWord(aes.RotWord(prev))
		dRotLow := bits.OnesCount32(rotBase & 0x00FFFFFF)
		rotHigh := byte(rotBase >> 24)
		if dIdent <= tolerance {
			// A live identity class (real keystream windows land here) means
			// almost every a survives the prefilter: walk them all.
			dSub := -1 // lazy: only nk > 6 schedules have the subword class
			for a := 0; a+nk+MinVerifyWords <= total; a++ {
				i := a + nk // absolute index of the first predicted word
				var d0 int
				switch {
				case i%nk == 0:
					d0 = dRotLow + bits.OnesCount8(rotHigh^byte(aes.Rcon(i/nk)>>24))
				case nk > 6 && i%nk == 4:
					if dSub < 0 {
						dSub = bits.OnesCount32(base0 ^ aes.SubWord(prev))
					}
					d0 = dSub
				default:
					d0 = dIdent
				}
				if d0 > tolerance {
					continue
				}
				hits = tryHit(hits, words, j, a, v, total, maxVerify, tolerance)
			}
			continue
		}
		// Dead identity class — the overwhelmingly common case on non-key
		// data. Every a with (a+nk) % nk ∉ {0, 4} shares dIdent and is
		// rejected, so only the rotate class (a ≡ 0 mod nk) and, for
		// nk > 6, the subword class (a ≡ 4 mod nk) can survive: walk just
		// those few, in the same ascending-a order as the full loop.
		rotDead := dRotLow > tolerance
		subDead := nk <= 6
		if !subDead {
			subDead = bits.OnesCount32(base0^aes.SubWord(prev)) > tolerance
		}
		if rotDead && subDead {
			continue
		}
		for a := 0; a+nk+MinVerifyWords <= total; a += nk {
			if !rotDead {
				if d0 := dRotLow + bits.OnesCount8(rotHigh^byte(aes.Rcon((a+nk)/nk)>>24)); d0 <= tolerance {
					hits = tryHit(hits, words, j, a, v, total, maxVerify, tolerance)
				}
			}
			if !subDead {
				if as := a + 4; as+nk+MinVerifyWords <= total {
					hits = tryHit(hits, words, j, as, v, total, maxVerify, tolerance)
				}
			}
		}
	}
	return hits
}

// tryHit runs the full prediction walk for trial (j, a) and appends a
// ScheduleHit if it verifies within tolerance.
func tryHit(hits []ScheduleHit, words []uint32, j, a int, v aes.Variant, total, maxVerify, tolerance int) []ScheduleHit {
	verify := total - a - v.Nk()
	if verify > maxVerify {
		verify = maxVerify
	}
	d, ok := predictAndCompare(words, j, a, v, verify, tolerance)
	if ok {
		hits = append(hits, ScheduleHit{
			WordOffset:    j,
			ScheduleIndex: a,
			VerifiedWords: verify,
			Distance:      d,
		})
	}
	return hits
}

// predictAndCompare runs the key-expansion recurrence from the window at
// word offset j (interpreted as schedule words a..a+nk-1) and compares the
// next `verify` predicted words against the block contents, bailing out as
// soon as the cumulative distance exceeds the tolerance. The prediction is
// aes.ExtendForwardInto on a block-sized stack buffer (pred[k] predicts
// words[j+k]), run first for MinVerifyWords words and then for the rest:
// almost every trial is application data that fails within the first two.
func predictAndCompare(words []uint32, j, a int, v aes.Variant, verify, tolerance int) (int, bool) {
	nk := v.Nk()
	var pred [BlockBytes / 4]uint32
	copy(pred[:nk], words[j:j+nk])
	dist := 0
	end := nk + verify
	for lo, hi := nk, min(nk+MinVerifyWords, end); lo < end; lo, hi = hi, end {
		aes.ExtendForwardInto(pred[:], a, lo, hi, v)
		for k := lo; k < hi; k++ {
			dist += bits.OnesCount32(pred[k] ^ words[j+k])
			if dist > tolerance {
				return dist, false
			}
		}
	}
	return dist, true
}

// MasterFromHit derives the master key implied by a hit: the window words
// are taken as schedule words at the hit's absolute index and extended
// backwards to word zero. A clean (undecayed) window yields the true master
// key; a corrupted window yields garbage that full-schedule verification
// rejects.
func MasterFromHit(block []byte, hit ScheduleHit, v aes.Variant) []byte {
	words := aes.BytesToWords(block)
	nk := v.Nk()
	window := words[hit.WordOffset : hit.WordOffset+nk]
	return aes.RecoverMasterKey(window, hit.ScheduleIndex, v)
}

// TableStart returns the dump byte offset at which the schedule containing
// this hit begins (may be negative if the hit's placement would put the
// table head before the dump start, which disqualifies it).
func (h ScheduleHit) TableStart(blockIdx int) int {
	return blockIdx*BlockBytes + 4*h.WordOffset - 4*h.ScheduleIndex
}
