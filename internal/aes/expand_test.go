package aes

import (
	"bytes"
	"math/rand"
	"testing"
)

func randKey(rng *rand.Rand, v Variant) []byte {
	k := make([]byte, v.KeyBytes())
	rng.Read(k)
	return k
}

// extendForward returns the n schedule words that follow window (schedule
// words start onward), grown by the in-place forward kernel.
func extendForward(window []uint32, start int, v Variant, n int) []uint32 {
	buf := make([]uint32, len(window)+n)
	copy(buf, window)
	ExtendForwardInto(buf, start, len(window), len(buf), v)
	return buf[len(window):]
}

// extendBackward returns schedule words start-n .. start-1 in ascending
// order, grown by the in-place backward kernel from window's first Nk
// words (schedule words start onward).
func extendBackward(window []uint32, start int, v Variant, n int) []uint32 {
	nk := v.Nk()
	buf := make([]uint32, n+nk)
	copy(buf[n:], window[:nk])
	ExtendBackwardInto(buf, start-n, 0, n, v)
	return buf[:n]
}

func TestExtendForwardReproducesSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, v := range []Variant{AES128, AES192, AES256} {
		for trial := 0; trial < 20; trial++ {
			w := ExpandKey(randKey(rng, v))
			nk := v.Nk()
			// From every possible window position, extending forward must
			// reproduce the rest of the schedule exactly.
			for start := 0; start+nk <= len(w); start++ {
				n := len(w) - (start + nk)
				if n == 0 {
					continue
				}
				got := extendForward(w[start:start+nk], start, v, n)
				if !equalWords(got, w[start+nk:]) {
					t.Fatalf("%v: forward extension from start %d mismatch", v, start)
				}
			}
		}
	}
}

func TestExtendBackwardReproducesSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, v := range []Variant{AES128, AES192, AES256} {
		for trial := 0; trial < 20; trial++ {
			w := ExpandKey(randKey(rng, v))
			nk := v.Nk()
			for start := 1; start+nk <= len(w); start++ {
				got := extendBackward(w[start:start+nk], start, v, start)
				if !equalWords(got, w[:start]) {
					t.Fatalf("%v: backward extension from start %d mismatch", v, start)
				}
			}
		}
	}
}

func TestExtendForwardBackwardInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, v := range []Variant{AES128, AES256} {
		w := ExpandKey(randKey(rng, v))
		nk := v.Nk()
		start := 8
		window := w[start : start+nk]
		fwd := extendForward(window, start, v, 4)
		// The forward words together with window can be extended backward to
		// recover the window itself.
		combined := append(append([]uint32{}, window...), fwd...)
		back := extendBackward(combined[len(combined)-nk:], start+len(combined)-nk, v, len(combined)-nk)
		if !equalWords(back, combined[:len(combined)-nk]) {
			t.Fatalf("%v: backward does not invert forward", v)
		}
	}
}

func TestRecoverMasterKeyFromEveryPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, v := range []Variant{AES128, AES192, AES256} {
		key := randKey(rng, v)
		w := ExpandKey(key)
		nk := v.Nk()
		for start := 0; start+nk <= len(w); start++ {
			got := RecoverMasterKey(w[start:start+nk], start, v)
			if !bytes.Equal(got, key) {
				t.Fatalf("%v: master key recovery from word %d failed:\n got %x\nwant %x",
					v, start, got, key)
			}
		}
	}
}

func TestRecoverMasterKeyFromTail(t *testing.T) {
	// The most decay-relevant case: only the LAST round keys survive.
	rng := rand.New(rand.NewSource(15))
	key := randKey(rng, AES256)
	w := ExpandKey(key)
	tail := w[len(w)-8:]
	got := RecoverMasterKey(tail, len(w)-8, AES256)
	if !bytes.Equal(got, key) {
		t.Fatalf("master key from schedule tail failed")
	}
}

func TestScheduleFRconProgression(t *testing.T) {
	// rcon(1)=01, rcon(2)=02, ..., rcon(9)=1b, rcon(10)=36 (FIPS-197 §5.2).
	wants := []uint32{0x01000000, 0x02000000, 0x04000000, 0x08000000,
		0x10000000, 0x20000000, 0x40000000, 0x80000000, 0x1b000000, 0x36000000}
	for i, want := range wants {
		if got := Rcon(i + 1); got != want {
			t.Errorf("rcon(%d) = %08x, want %08x", i+1, got, want)
		}
	}
}

func TestExpandKeyBytesLayoutMatchesMemory(t *testing.T) {
	// The byte layout must be the big-endian word serialization, which is
	// how real AES software (and the FIPS spec) lays out round keys.
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i)
	}
	b := ExpandKeyBytes(key)
	if len(b) != 240 {
		t.Fatalf("schedule bytes = %d, want 240", len(b))
	}
	// First KeyBytes bytes of the schedule ARE the master key.
	if !bytes.Equal(b[:32], key) {
		t.Error("schedule head is not the master key")
	}
}

func equalWords(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkExpandKey256(b *testing.B) {
	key := make([]byte, 32)
	for i := 0; i < b.N; i++ {
		ExpandKey(key)
	}
}

func BenchmarkExtendForwardOneRound(b *testing.B) {
	key := make([]byte, 32)
	w := ExpandKey(key)
	var buf [12]uint32
	copy(buf[:], w[8:16])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ExtendForwardInto(buf[:], 8, 8, 12, AES256)
	}
}
