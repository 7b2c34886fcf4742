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
	return aesLitmusWords(aes.BytesToWords(block), v, tolerance, false, nil)
}

// aesLitmusWords is AESLitmus on a pre-converted word view, appending hits
// onto the caller's slice — the hunt workers reuse both the word buffer and
// the hit slice across every (block, key) pair. With skipDegenerate set,
// window positions whose words windowDegenerateWords flags are skipped
// before any trial (their masters are meaningless); without it the hit
// set is identical to the plain nested scan's.
func aesLitmusWords(words []uint32, v aes.Variant, tolerance int, skipDegenerate bool, hits []ScheduleHit) []ScheduleHit {
	nk := v.Nk()
	total := v.ScheduleWords()
	const blockWords = BlockBytes / 4
	var tb trialBounds
	for j := 0; j+nk+MinVerifyWords <= blockWords; j++ {
		if !tb.init(words, j, nk, tolerance) {
			continue
		}
		if skipDegenerate && windowDegenerateWords(words[j:j+nk]) {
			continue
		}
		maxVerify := blockWords - j - nk
		// Walk only the live residues, in the same ascending-a order as the
		// full loop; round is the key-expansion round of schedule word a0+nk.
		for a0, round := 0, 1; a0+nk+MinVerifyWords <= total; a0, round = a0+nk, round+1 {
			for _, r := range tb.live[:tb.nLive] {
				a := a0 + int(r)
				if a+nk+MinVerifyWords > total {
					break
				}
				if tb.dist(r, round) <= tolerance {
					hits = tryHit(hits, words, j, a, v, total, maxVerify, tolerance)
				}
			}
		}
	}
	return hits
}

// trialBounds is the two-word class prefilter for one window position j.
// The first two words trial (j, a) predicts are
//
//	p0 = words[j]   ^ f(a+nk,   words[j+nk-1])   vs. words[j+nk]
//	p1 = words[j+1] ^ f(a+nk+1, p0)              vs. words[j+nk+1]
//
// where f is the schedule step: RotWord+SubWord+rcon at an index ≡ 0
// (mod nk), SubWord at ≡ 4 for nk > 6, identity otherwise. Both steps
// depend on a only through its residue r = a mod nk, except for the rcon
// byte, which only touches the top byte of a rotate-class word. So the
// summed two-word distance is one rcon-free constant per residue plus, for
// r = 0 (rotate, identity) and r = nk-1 (identity, rotate), the top-byte
// popcounts against that round's rcon. predictAndCompare accumulates the
// same two distances first and fails as soon as the sum passes the
// tolerance, so a trial whose summed distance is over the tolerance is
// skipped exactly when the walk would fail within MinVerifyWords words.
type trialBounds struct {
	nk int
	// base is the rcon-free two-word distance per residue.
	base [8]int
	// rotHi holds, for r = 0, the top bytes of both compared words before
	// the rcon is applied to p0 (p1 inherits it through the identity
	// step); lastHi is, for r = nk-1, the top byte of the second compared
	// word before the rcon.
	rotHi  [2]byte
	lastHi byte
	// live lists, ascending, the residues whose base is within tolerance.
	live  [8]uint8
	nLive int
}

// init computes the bounds for window position j and reports whether any
// residue can still pass. It derives second-word terms only for residues
// whose first word is already within tolerance: on non-key data almost
// every position ends after the first-word distances.
func (tb *trialBounds) init(words []uint32, j, nk, tolerance int) bool {
	tb.nk, tb.nLive = nk, 0
	w0, w1 := words[j], words[j+1]
	o0, o1 := words[j+nk], words[j+nk+1]
	prev := words[j+nk-1]
	fail := tolerance + 1

	// First-word distances of the three step classes. SubWord is bytewise,
	// so it commutes with RotWord and one S-box pass over prev serves both
	// the rotate and the subword class.
	idP0 := w0 ^ prev
	dId := bits.OnesCount32(idP0 ^ o0)
	subPrev := aes.SubWord(prev)
	rotP0 := w0 ^ aes.RotWord(subPrev)
	rotX0 := rotP0 ^ o0
	dRotId := bits.OnesCount32(rotX0 & 0x00FFFFFF) // rcon-free
	subP0 := w0 ^ subPrev
	dSubId := fail
	if nk > 6 {
		dSubId = bits.OnesCount32(subP0 ^ o0)
	}
	if dId > tolerance && dRotId > tolerance && dSubId > tolerance {
		return false // the common case on non-key data
	}

	// Add the second word. After an identity first step, the second
	// step's class picks the term; after a rotate or subword first step the
	// second step is the identity.
	dIdId, dIdSub, dIdRot := fail, fail, fail
	var idRotX, rotY uint32
	if dId <= tolerance {
		dIdId = dId + bits.OnesCount32(w1^idP0^o1)
		sub := aes.SubWord(idP0)
		idRotX = w1 ^ aes.RotWord(sub) ^ o1
		dIdRot = dId + bits.OnesCount32(idRotX&0x00FFFFFF)
		if nk > 6 {
			dIdSub = dId + bits.OnesCount32(w1^sub^o1)
		}
	}
	if dRotId <= tolerance {
		rotY = w1 ^ rotP0 ^ o1
		dRotId += bits.OnesCount32(rotY & 0x00FFFFFF)
	}
	if dSubId <= tolerance {
		dSubId += bits.OnesCount32(w1 ^ subP0 ^ o1)
	}
	tb.rotHi = [2]byte{byte(rotX0 >> 24), byte(rotY >> 24)}
	tb.lastHi = byte(idRotX >> 24)

	for r := 0; r < nk; r++ {
		d := dIdId
		switch {
		case r == 0:
			d = dRotId
		case r == nk-1:
			d = dIdRot
		case nk > 6 && r == 3:
			d = dIdSub
		case nk > 6 && r == 4:
			d = dSubId
		}
		tb.base[r] = d
		if d <= tolerance {
			tb.live[tb.nLive] = uint8(r)
			tb.nLive++
		}
	}
	return tb.nLive > 0
}

// dist returns the summed two-word distance of a live residue r's trial in
// the round-th row, where round is the expansion round of the first
// predicted word (a/nk + 1).
func (tb *trialBounds) dist(r uint8, round int) int {
	switch int(r) {
	case 0:
		rc := byte(aes.Rcon(round) >> 24)
		return tb.base[0] + bits.OnesCount8(tb.rotHi[0]^rc) + bits.OnesCount8(tb.rotHi[1]^rc)
	case tb.nk - 1:
		// The rotate step is the second word's, one round later.
		return tb.base[r] + bits.OnesCount8(tb.lastHi^byte(aes.Rcon(round+1)>>24))
	}
	return tb.base[r]
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

// TableStart returns the dump byte offset at which the schedule containing
// this hit begins (may be negative if the hit's placement would put the
// table head before the dump start, which disqualifies it).
func (h ScheduleHit) TableStart(blockIdx int) int {
	return blockIdx*BlockBytes + 4*h.WordOffset - 4*h.ScheduleIndex
}
