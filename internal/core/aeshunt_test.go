package core

import (
	"bytes"
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
			if bytes.Equal(MasterFromHit(block, h, v), key) {
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
			if bytes.Equal(MasterFromHit(block, h, aes.AES256), key) {
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
		if h.WordOffset == 0 && bytes.Equal(MasterFromHit(block, h, aes.AES256), key) {
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

func BenchmarkAESLitmusPerBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	block := make([]byte, BlockBytes)
	rng.Read(block)
	b.SetBytes(BlockBytes)
	for i := 0; i < b.N; i++ {
		AESLitmus(block, aes.AES256, DefaultAESTolerance)
	}
}
