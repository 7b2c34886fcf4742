package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"coldboot/internal/aes"
)

// plantSchedule builds a 64-byte block whose contents are schedule bytes
// [byteOff, byteOff+64) of the expansion of key, returning the block and
// the schedule.
func plantSchedule(t *testing.T, key []byte, byteOff int) ([]byte, []byte) {
	t.Helper()
	sched := aes.ExpandKeyBytes(key)
	if byteOff%4 != 0 {
		t.Fatal("schedules are word aligned in memory")
	}
	block := make([]byte, BlockBytes)
	copy(block, sched[byteOff:byteOff+BlockBytes])
	return block, sched
}

// hitMaster derives the master key a hit implies: the window's words are
// taken as schedule words at the hit's index and extended back to word 0.
func hitMaster(block []byte, h ScheduleHit, v aes.Variant) []byte {
	words := aes.BytesToWords(block)
	return aes.RecoverMasterKey(words[h.WordOffset:h.WordOffset+v.Nk()], h.ScheduleIndex, v)
}

func TestAESLitmusFindsPlantedSchedule256(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	key := make([]byte, 32)
	rng.Read(key)
	// A block holding schedule bytes 64..128 (words 16..31).
	block, _ := plantSchedule(t, key, 64)
	hits := AESLitmus(block, aes.AES256, 0)
	if len(hits) == 0 {
		t.Fatal("no hits on planted schedule block")
	}
	// The true anchoring (window at word 0, schedule index 16) must appear.
	foundTrue := false
	for _, h := range hits {
		if h.WordOffset == 0 && h.ScheduleIndex == 16 && h.Distance == 0 {
			foundTrue = true
		}
	}
	if !foundTrue {
		t.Errorf("true anchor missing from hits: %+v", hits)
	}
}

func TestAESLitmusMasterRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, v := range []aes.Variant{aes.AES128, aes.AES192, aes.AES256} {
		key := make([]byte, v.KeyBytes())
		rng.Read(key)
		block, _ := plantSchedule(t, key, 64)
		hits := AESLitmus(block, v, 0)
		if len(hits) == 0 {
			t.Fatalf("%v: no hits", v)
		}
		recovered := false
		for _, h := range hits {
			if bytes.Equal(hitMaster(block, h, v), key) {
				recovered = true
				break
			}
		}
		if !recovered {
			t.Errorf("%v: no hit recovered the master key", v)
		}
	}
}

func TestAESLitmusAllWordAlignments(t *testing.T) {
	// The schedule can start at any word offset within a block; the true
	// anchor must be found for all 16 phases.
	rng := rand.New(rand.NewSource(3))
	key := make([]byte, 32)
	rng.Read(key)
	sched := aes.ExpandKeyBytes(key)
	for phase := 0; phase < 16; phase++ {
		// Block contains schedule bytes starting at 64-4*phase... choose a
		// block one block into the table to keep indices valid.
		start := 64 + 4*phase
		block := make([]byte, BlockBytes)
		copy(block, sched[start:start+BlockBytes])
		hits := AESLitmus(block, aes.AES256, 0)
		ok := false
		for _, h := range hits {
			if bytes.Equal(hitMaster(block, h, aes.AES256), key) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("phase %d: master not recovered", phase)
		}
	}
}

func TestAESLitmusToleratesVerifyDecay(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	key := make([]byte, 32)
	rng.Read(key)
	block, _ := plantSchedule(t, key, 64)
	// Flip 3 bits in the verification region (beyond the first 32 bytes).
	for i := 0; i < 3; i++ {
		bit := 32*8 + rng.Intn(32*8)
		block[bit/8] ^= 1 << uint(bit%8)
	}
	hits := AESLitmus(block, aes.AES256, DefaultAESTolerance)
	ok := false
	for _, h := range hits {
		if h.WordOffset == 0 && bytes.Equal(hitMaster(block, h, aes.AES256), key) {
			ok = true
		}
	}
	if !ok {
		t.Error("decayed verify region defeated the litmus despite tolerance")
	}
}

func TestAESLitmusRejectsRandomBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	block := make([]byte, BlockBytes)
	total := 0
	for trial := 0; trial < 3000; trial++ {
		rng.Read(block)
		total += len(AESLitmus(block, aes.AES256, DefaultAESTolerance))
	}
	if total > 0 {
		t.Errorf("%d spurious hits on random blocks", total)
	}
}

func TestAESLitmusZeroBlockHitsAreDegenerate(t *testing.T) {
	// Zero blocks produce hits in transform-free phases; they must all be
	// flagged degenerate so the pipeline can skip them.
	block := make([]byte, BlockBytes)
	hits := AESLitmus(block, aes.AES256, 0)
	for _, h := range hits {
		if !windowDegenerate(block, h, aes.AES256.Nk()) {
			t.Fatalf("zero-block hit %+v not flagged degenerate", h)
		}
	}
}

func TestTableStart(t *testing.T) {
	h := ScheduleHit{WordOffset: 2, ScheduleIndex: 18}
	// block 10: byte 640; window at word 2 = byte 648; schedule word 18 =
	// schedule byte 72 → table starts at 648-72 = 576.
	if got := h.TableStart(10); got != 576 {
		t.Errorf("TableStart = %d, want 576", got)
	}
}

func TestPredictAndCompareMatchesExpandKey(t *testing.T) {
	// The hunt's in-block prediction must agree with the full expansion
	// from every schedule position, and count a flipped verified bit.
	rng := rand.New(rand.NewSource(6))
	for _, v := range []aes.Variant{aes.AES128, aes.AES192, aes.AES256} {
		key := make([]byte, v.KeyBytes())
		rng.Read(key)
		w := aes.ExpandKey(key)
		nk := v.Nk()
		for a := 0; a+nk+MinVerifyWords <= len(w); a++ {
			verify := min(BlockBytes/4-nk, len(w)-a-nk)
			var words [BlockBytes / 4]uint32
			copy(words[:], w[a:a+nk+verify])
			if d, ok := predictAndCompare(words[:], 0, a, v, verify, 0); !ok || d != 0 {
				t.Fatalf("%v a=%d: prediction distance %d, ok %v; want 0, true", v, a, d, ok)
			}
			words[nk+verify-1] ^= 1 << 7
			if d, ok := predictAndCompare(words[:], 0, a, v, verify, 0); ok || d != 1 {
				t.Fatalf("%v a=%d: flipped last word: distance %d, ok %v; want 1, false", v, a, d, ok)
			}
		}
	}
}

// TestTrialBoundsExact holds the two-word class prefilter to its contract
// for every variant: a trial it skips fails predictAndCompare within
// MinVerifyWords words, and a trial it keeps is within tolerance over
// those two words, with the summed distance the prefilter computed.
func TestTrialBoundsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, v := range []aes.Variant{aes.AES128, aes.AES192, aes.AES256} {
		nk := v.Nk()
		sched := aes.ExpandKeyBytes(testMaster(int64(8*nk), v.KeyBytes()))
		blocks := []struct {
			name string
			fill func([]byte)
		}{
			{"noise", func(b []byte) { rng.Read(b) }},
			{"schedule", func(b []byte) {
				off := 4 * rng.Intn(len(sched)/4-BlockBytes/4)
				copy(b, sched[off:off+BlockBytes])
			}},
			{"decayed_schedule", func(b []byte) {
				off := 4 * rng.Intn(len(sched)/4-BlockBytes/4)
				copy(b, sched[off:off+BlockBytes])
				for i := 0; i < 1+rng.Intn(6); i++ {
					bit := rng.Intn(BlockBytes * 8)
					b[bit/8] ^= 1 << uint(bit%8)
				}
			}},
			{"repeated_word", func(b []byte) {
				w := rng.Uint32()
				for i := 0; i < BlockBytes; i += 4 {
					binary.LittleEndian.PutUint32(b[i:], w)
				}
				b[rng.Intn(BlockBytes)] ^= byte(1 << uint(rng.Intn(8)))
			}},
		}
		for _, bc := range blocks {
			t.Run(v.String()+"/"+bc.name, func(t *testing.T) {
				block := make([]byte, BlockBytes)
				var kept, skipped int
				for trial := 0; trial < 200; trial++ {
					bc.fill(block)
					words := aes.BytesToWords(block)
					for _, tol := range []int{0, DefaultAESTolerance, 20} {
						for j := 0; j+nk+MinVerifyWords <= BlockBytes/4; j++ {
							var tb trialBounds
							live := tb.init(words, j, nk, tol)
							for a := 0; a+nk+MinVerifyWords <= v.ScheduleWords(); a++ {
								r := uint8(a % nk)
								walk := live && bytes.IndexByte(tb.live[:tb.nLive], r) >= 0 &&
									tb.dist(r, a/nk+1) <= tol
								d, _ := predictAndCompare(words, j, a, v, MinVerifyWords, 1<<30)
								_, ok := predictAndCompare(words, j, a, v, MinVerifyWords, tol)
								switch {
								case !walk && ok:
									t.Fatalf("tol %d trial (%d, %d) skipped, but its two words are %d bits off", tol, j, a, d)
								case walk && !ok:
									t.Fatalf("tol %d trial (%d, %d) walked, but its two words are %d bits off", tol, j, a, d)
								case walk && tb.dist(r, a/nk+1) != d:
									t.Fatalf("tol %d trial (%d, %d): prefilter distance %d, walk %d", tol, j, a, tb.dist(r, a/nk+1), d)
								}
								if walk {
									kept++
								} else {
									skipped++
								}
							}
						}
					}
				}
				if bc.name != "noise" && kept == 0 {
					t.Errorf("no trial survived the prefilter (%d skipped)", skipped)
				}
			})
		}
	}
}

func BenchmarkAESLitmusPerBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	block := make([]byte, BlockBytes)
	rng.Read(block)
	b.SetBytes(BlockBytes)
	for i := 0; i < b.N; i++ {
		AESLitmus(block, aes.AES256, DefaultAESTolerance)
	}
}
