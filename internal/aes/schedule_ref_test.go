package aes

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// This file freezes the per-word schedule recurrence the round-walking
// kernels replaced: every word paid i%nk, i/nk and an rcon loop. The
// kernels must reproduce it word for word on every variant, every window
// position and extensions past the end of a real schedule (where the round
// constants wrap their period of 51).

func refRcon(i int) uint32 {
	c := byte(1)
	for ; i > 1; i-- {
		c = xtime(c)
	}
	return uint32(c) << 24
}

func refScheduleF(prev uint32, i, nk int) uint32 {
	switch {
	case i%nk == 0:
		return SubWord(RotWord(prev)) ^ refRcon(i/nk)
	case nk > 6 && i%nk == 4:
		return SubWord(prev)
	default:
		return prev
	}
}

func refExpandKey(key []byte) []uint32 {
	v := variantForKey(key)
	nk := v.Nk()
	w := BytesToWords(key)
	for i := nk; i < v.ScheduleWords(); i++ {
		w = append(w, w[i-nk]^refScheduleF(w[i-1], i, nk))
	}
	return w
}

func refExtendForward(window []uint32, start int, v Variant, n int) []uint32 {
	nk := v.Nk()
	buf := append([]uint32{}, window...)
	out := make([]uint32, 0, n)
	for k := 0; k < n; k++ {
		i := start + len(buf)
		next := buf[len(buf)-nk] ^ refScheduleF(buf[len(buf)-1], i, nk)
		buf = append(buf, next)
		out = append(out, next)
	}
	return out
}

func refExtendBackward(window []uint32, start int, v Variant, n int) []uint32 {
	nk := v.Nk()
	buf := make([]uint32, n+len(window))
	copy(buf[n:], window)
	for i := start - 1; i >= start-n; i-- {
		j := i - (start - n)
		buf[j] = buf[j+nk] ^ refScheduleF(buf[j+nk-1], i+nk, nk)
	}
	return buf[:n]
}

func refRecoverMasterKey(window []uint32, start int, v Variant) []byte {
	nk := v.Nk()
	buf := make([]uint32, start+len(window))
	copy(buf[start:], window)
	for i := start - 1; i >= 0; i-- {
		buf[i] = buf[i+nk] ^ refScheduleF(buf[i+nk-1], i+nk, nk)
	}
	return WordsToBytes(buf[:nk])
}

var allVariants = []Variant{AES128, AES192, AES256}

func TestRconTableMatchesLoop(t *testing.T) {
	for i := 1; i <= 4*len(rconTable); i++ {
		if got, want := Rcon(i), refRcon(i); got != want {
			t.Fatalf("Rcon(%d) = %08x, want %08x", i, got, want)
		}
	}
}

func TestExpandKeyMatchesFrozenRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, v := range allVariants {
		for trial := 0; trial < 200; trial++ {
			key := randKey(rng, v)
			if got, want := ExpandKey(key), refExpandKey(key); !equalWords(got, want) {
				t.Fatalf("%v trial %d: ExpandKey\n got  %08x\n want %08x", v, trial, got, want)
			}
		}
	}
}

// TestRecoverMasterKeyMatchesFrozenRecurrence recovers from every start
// index, on real schedules and on random windows (decayed or garbage
// windows are what the repair search feeds it).
func TestRecoverMasterKeyMatchesFrozenRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, v := range allVariants {
		nk := v.Nk()
		for trial := 0; trial < 40; trial++ {
			sched := ExpandKey(randKey(rng, v))
			noise := make([]uint32, len(sched))
			for i := range noise {
				noise[i] = rng.Uint32()
			}
			for _, w := range [][]uint32{sched, noise} {
				for start := 0; start+nk <= len(w); start++ {
					for _, win := range [][]uint32{w[start : start+nk], w[start:]} {
						got := RecoverMasterKey(win, start, v)
						if want := refRecoverMasterKey(win, start, v); !bytes.Equal(got, want) {
							t.Fatalf("%v start %d window %d: got % x want % x", v, start, len(win), got, want)
						}
					}
				}
			}
		}
	}
}

// TestExtendMatchesFrozenRecurrence covers every window position, every
// extension length inside the schedule and long extensions far past it
// (forward up to 3 rcon periods, backward from deep starts).
func TestExtendMatchesFrozenRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, v := range allVariants {
		nk := v.Nk()
		total := v.ScheduleWords()
		for trial := 0; trial < 20; trial++ {
			w := ExpandKey(randKey(rng, v))
			for start := 0; start+nk <= total; start++ {
				win := w[start : start+nk]
				for _, n := range []int{1, 2, nk - 1, nk, nk + 1, total - start - nk, 3 * len(rconTable) * nk} {
					if n <= 0 {
						continue
					}
					if got, want := extendForward(win, start, v, n), refExtendForward(win, start, v, n); !equalWords(got, want) {
						t.Fatalf("%v start %d n %d: ExtendForwardInto differs", v, start, n)
					}
				}
				for n := 1; n <= start; n++ {
					if got, want := extendBackward(win, start, v, n), refExtendBackward(win, start, v, n); !equalWords(got, want) {
						t.Fatalf("%v start %d n %d: ExtendBackwardInto differs", v, start, n)
					}
				}
			}
			// Deep starts: backward extension crosses several rcon periods.
			for _, start := range []int{3 * len(rconTable) * nk, 3*len(rconTable)*nk + 3} {
				win := make([]uint32, nk+2)
				for i := range win {
					win[i] = rng.Uint32()
				}
				for _, n := range []int{1, nk + 1, start} {
					if got, want := extendBackward(win, start, v, n), refExtendBackward(win, start, v, n); !equalWords(got, want) {
						t.Fatalf("%v deep start %d n %d: ExtendBackwardInto differs", v, start, n)
					}
				}
				if got, want := RecoverMasterKey(win, start, v), refRecoverMasterKey(win, start, v); !bytes.Equal(got, want) {
					t.Fatalf("%v deep start %d: RecoverMasterKey differs", v, start)
				}
			}
		}
	}
}

// TestExtendIntoPieceByPiece builds a schedule in arbitrary chunks, in
// both directions, the way the repair scorer grows a candidate outward
// from its window.
func TestExtendIntoPieceByPiece(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, v := range allVariants {
		nk := v.Nk()
		total := v.ScheduleWords()
		for trial := 0; trial < 200; trial++ {
			want := ExpandKey(randKey(rng, v))
			a := rng.Intn(total - nk + 1)
			var got [MaxScheduleWords]uint32
			copy(got[a:], want[a:a+nk])
			for hi := a + nk; hi < total; {
				next := hi + 1 + rng.Intn(2*nk)
				if next > total {
					next = total
				}
				ExtendForwardInto(got[:], 0, hi, next, v)
				hi = next
			}
			for lo := a; lo > 0; {
				next := lo - 1 - rng.Intn(2*nk)
				if next < 0 {
					next = 0
				}
				ExtendBackwardInto(got[:], 0, next, lo, v)
				lo = next
			}
			if !equalWords(got[:total], want) {
				t.Fatalf("%v window %d: piecewise schedule\n got  %08x\n want %08x", v, a, got[:total], want)
			}
		}
	}
}

func BenchmarkRecoverMasterKey(b *testing.B) {
	for _, v := range allVariants {
		b.Run(fmt.Sprint(v), func(b *testing.B) {
			sched := ExpandKey(make([]byte, v.KeyBytes()))
			start := v.ScheduleWords() - v.Nk()
			var dst [32]byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				RecoverMasterKeyInto(dst[:0], sched[start:], start, v)
			}
		})
	}
}
