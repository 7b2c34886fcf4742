package aes

import (
	"fmt"
	"slices"
)

// Key schedule words are stored big-endian, matching FIPS-197: schedule word
// w[i] corresponds to bytes 4i..4i+3 of the round-key table as it appears in
// memory. BytesToWords / WordsToBytes convert between the in-memory byte
// layout (what a memory dump contains) and the word form used here.

// MaxScheduleWords and MaxScheduleBytes are the largest schedule dimensions
// of any variant (AES-256: 60 words, 240 bytes). The Into variants below and
// their callers size fixed scratch buffers with these so the per-candidate
// hot paths never allocate.
const (
	MaxScheduleWords = 60
	MaxScheduleBytes = 4 * MaxScheduleWords
)

// BytesToWords converts a byte slice (length divisible by 4) into big-endian
// schedule words.
func BytesToWords(b []byte) []uint32 {
	return BytesToWordsInto(make([]uint32, 0, len(b)/4), b)
}

// BytesToWordsInto appends the big-endian schedule words of b (length
// divisible by 4) to dst and returns the extended slice. With dst capacity
// >= len(b)/4 it does not allocate.
func BytesToWordsInto(dst []uint32, b []byte) []uint32 {
	if len(b)%4 != 0 {
		panic(fmt.Sprintf("aes: BytesToWords length %d not divisible by 4", len(b)))
	}
	for i := 0; i+4 <= len(b); i += 4 {
		dst = append(dst, uint32(b[i])<<24|uint32(b[i+1])<<16|uint32(b[i+2])<<8|uint32(b[i+3]))
	}
	return dst
}

// WordsToBytes converts schedule words back into the in-memory byte layout.
func WordsToBytes(w []uint32) []byte {
	return WordsToBytesInto(make([]byte, 0, 4*len(w)), w)
}

// WordsToBytesInto appends the in-memory byte layout of the schedule words to
// dst and returns the extended slice. With dst capacity >= 4*len(w) it does
// not allocate.
func WordsToBytesInto(dst []byte, w []uint32) []byte {
	for _, v := range w {
		dst = append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return dst
}

// variantForKey maps a raw key length to its AES variant.
func variantForKey(key []byte) Variant {
	switch len(key) {
	case 16:
		return AES128
	case 24:
		return AES192
	case 32:
		return AES256
	}
	panic(fmt.Sprintf("aes: invalid key length %d", len(key)))
}

// ExpandKey computes the full key schedule for key (16, 24, or 32 bytes),
// returning 4*(Nr+1) words. This is the table that disk-encryption software
// keeps in memory for the lifetime of a mounted volume — the attack target.
func ExpandKey(key []byte) []uint32 {
	v := variantForKey(key)
	return ExpandKeyInto(make([]uint32, 0, v.ScheduleWords()), key)
}

// ExpandKeyInto appends the full key schedule words for key to dst and
// returns the extended slice. With dst capacity >= MaxScheduleWords it does
// not allocate — this is what lets the repair flip loops re-derive thousands
// of candidate schedules on a fixed scratch buffer.
func ExpandKeyInto(dst []uint32, key []byte) []uint32 {
	v := variantForKey(key)
	nk, total := v.Nk(), v.ScheduleWords()
	base := len(dst)
	dst = BytesToWordsInto(dst, key)
	dst = slices.Grow(dst, total-nk)[:base+total]
	ExtendForwardInto(dst[base:], 0, nk, total, v)
	return dst
}

// ExpandKeyBytes is ExpandKey returning the in-memory byte layout of the
// schedule (e.g. 240 bytes for AES-256, 176 for AES-128).
func ExpandKeyBytes(key []byte) []byte {
	return ExpandKeyBytesInto(make([]byte, 0, variantForKey(key).ScheduleBytes()), key)
}

// ExpandKeyBytesInto appends the in-memory byte layout of key's full
// schedule to dst and returns the extended slice. With dst capacity >=
// MaxScheduleBytes it does not allocate.
func ExpandKeyBytesInto(dst []byte, key []byte) []byte {
	var w [MaxScheduleWords]uint32
	return WordsToBytesInto(dst, ExpandKeyInto(w[:0], key))
}

// ExtendForwardInto is the forward schedule kernel every expansion runs
// on. w[j] holds schedule word base+j; the kernel fills w[from:to] in place
// from the nk words below from, by the FIPS-197 recurrence
// w[i] = w[i-Nk] ^ f(w[i-1], i). It walks whole Nk-word rounds, so the
// word class (i mod Nk) and round constant advance with the loop instead
// of costing two divisions per word; only the first word's position is
// divided out, once per call. It does not allocate. This is the "partial
// key expansion" the attack runs against candidate descrambled blocks: no
// knowledge of earlier schedule words is required.
func ExtendForwardInto(w []uint32, base, from, to int, v Variant) {
	if from >= to {
		return
	}
	nk := v.Nk()
	i := base + from
	r0 := from - i%nk // slot of the current round's class-0 word
	rc := (i/nk + len(rconTable) - 1) % len(rconTable)
	prev := w[from-1]
	for j := from; j < to; {
		if j == r0 {
			prev = w[j-nk] ^ SubWord(RotWord(prev)) ^ rconTable[rc]
			w[j] = prev
			j++
		}
		end := r0 + nk
		if end > to {
			end = to
		}
		for ; j < end; j++ {
			if nk > 6 && j-r0 == 4 {
				prev = SubWord(prev)
			}
			prev ^= w[j-nk]
			w[j] = prev
		}
		r0 += nk
		if rc++; rc == len(rconTable) {
			rc = 0
		}
	}
}

// ExtendBackwardInto is the backward schedule kernel: w[j] holds schedule
// word base+j, and the kernel fills w[from:to] in place, descending, from
// the nk words at w[to:to+nk], by w[i] = w[i+Nk] ^ f(w[i+Nk-1], i+Nk).
// Within a round every word but the class-0 one depends only on the round
// above, and the class-0 word depends on its own round's last word, so
// walking each round from its top class down keeps every input known. Like
// ExtendForwardInto it divides once per call and does not allocate;
// base+from must be >= 0. Backward extension is what lets the attack
// recover the master key (the head of the table) from any intact region of
// the schedule, even when the first round keys were lost to bit decay.
func ExtendBackwardInto(w []uint32, base, from, to int, v Variant) {
	if from >= to {
		return
	}
	nk := v.Nk()
	i := base + to - 1
	r0 := to - 1 - i%nk           // slot of the current round's class-0 word
	rc := i / nk % len(rconTable) // its f uses rcon of the round above
	for j := to - 1; j >= from; {
		for ; j > r0 && j >= from; j-- {
			t := w[j+nk-1]
			if nk > 6 && j-r0 == 4 {
				t = SubWord(t)
			}
			w[j] = w[j+nk] ^ t
		}
		if j >= from {
			w[j] = w[j+nk] ^ SubWord(RotWord(w[j+nk-1])) ^ rconTable[rc]
			j--
		}
		r0 -= nk
		if rc == 0 {
			rc = len(rconTable)
		}
		rc--
	}
}

// RecoverMasterKey reconstructs the original cipher key from any window of
// at least Nk consecutive schedule words located at absolute word index
// start. It extends the window backwards to word 0 and returns the first
// KeyBytes() bytes — the master key.
func RecoverMasterKey(window []uint32, start int, v Variant) []byte {
	return RecoverMasterKeyInto(make([]byte, 0, v.KeyBytes()), window, start, v)
}

// RecoverMasterKeyInto is RecoverMasterKey appending the recovered master
// into dst and returning the extended slice. The backward extension runs on
// a fixed stack buffer (falling back to the heap only for windows past
// MaxScheduleWords, which no real schedule has), so with dst capacity >=
// KeyBytes() the recovery does not allocate.
func RecoverMasterKeyInto(dst []byte, window []uint32, start int, v Variant) []byte {
	nk := v.Nk()
	if len(window) < nk {
		panic(fmt.Sprintf("aes: RecoverMasterKey window %d < Nk %d", len(window), nk))
	}
	if start == 0 {
		return WordsToBytesInto(dst, window[:nk])
	}
	// buf[i] holds schedule word w[i] for i in [0, start+nk): the window's
	// first nk words in place, earlier words from the backward kernel.
	var stack [MaxScheduleWords]uint32
	buf := stack[:]
	if need := start + nk; need > len(buf) {
		buf = make([]uint32, need)
	}
	copy(buf[start:], window[:nk])
	ExtendBackwardInto(buf, 0, 0, start, v)
	return WordsToBytesInto(dst, buf[:nk])
}
