package core

// Property-based tests (testing/quick) over the attack's core invariants.

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"coldboot/internal/aes"
	"coldboot/internal/bitutil"
	"coldboot/internal/scramble"
	"coldboot/internal/workload"
)

func workloadLight() workload.Profile { return workload.LightSystem }

// TestPropertyLitmusLinear: the litmus distance is subadditive under XOR —
// in particular, XORing any block with a true key cannot raise the litmus
// distance by more than the block's own distance, which is the algebraic
// fact that makes double-scrambled dumps minable.
func TestPropertyLitmusLinear(t *testing.T) {
	s := scramble.NewSkylakeDDR4(9)
	f := func(idx uint16, blk [64]byte) bool {
		key := s.KeyAt(uint64(idx%4096) * 64)
		x := bitutil.XORNew(blk[:], key)
		return KeyLitmusDistance(x) == KeyLitmusDistance(blk[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyScrambleRoundTrip: scramble∘descramble is the identity for
// every scrambler at every block-aligned offset.
func TestPropertyScrambleRoundTrip(t *testing.T) {
	scramblers := []scramble.Scrambler{
		scramble.NewDDR3(5),
		scramble.NewSkylakeDDR4(5),
		scramble.NewSkylakeVariant(5, 8, nil),
	}
	f := func(data [128]byte, off uint16) bool {
		o := uint64(off) * 64
		for _, s := range scramblers {
			enc := make([]byte, len(data))
			s.Scramble(enc, data[:], o)
			dec := make([]byte, len(data))
			s.Descramble(dec, enc, o)
			if !bytes.Equal(dec, data[:]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAESLitmusCompleteness: a block holding any 64-byte-aligned
// slice of any valid schedule always produces at least one hit that
// recovers the master exactly.
func TestPropertyAESLitmusCompleteness(t *testing.T) {
	f := func(seed int64, blockPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		key := make([]byte, 32)
		rng.Read(key)
		sched := aes.ExpandKeyBytes(key)
		// Any word-aligned 64-byte window fully inside the schedule.
		maxStart := (len(sched) - 64) / 4
		start := 4 * (int(blockPick) % (maxStart + 1))
		block := make([]byte, 64)
		copy(block, sched[start:start+64])
		for _, h := range AESLitmus(block, aes.AES256, 0) {
			if bytes.Equal(hitMaster(block, h, aes.AES256), key) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMasterRecoveryComposition: RecoverMasterKey inverts ExpandKey
// from any window, for any variant — the identity the attack's step 4
// rests on.
func TestPropertyMasterRecoveryComposition(t *testing.T) {
	f := func(k [32]byte, pick uint8) bool {
		for _, v := range []aes.Variant{aes.AES128, aes.AES192, aes.AES256} {
			key := k[:v.KeyBytes()]
			w := aes.ExpandKey(key)
			nk := v.Nk()
			start := int(pick) % (len(w) - nk + 1)
			if !bytes.Equal(aes.RecoverMasterKey(w[start:start+nk], start, v), key) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMinedKeysSatisfyLitmus: every key the miner emits passes the
// litmus test it was mined with (majority voting cannot push a key outside
// the invariant space when sightings are genuine).
func TestPropertyMinedKeysSatisfyLitmus(t *testing.T) {
	dump, _, _ := buildScrambledDump(t, 512<<10, 77, workloadLight())
	res, err := MineKeys(context.Background(), dump, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range res.Keys {
		if !PassesKeyLitmus(k.Key, DefaultLitmusTolerance) {
			t.Fatalf("mined key (count %d) fails litmus", k.Count)
		}
	}
}

// TestPropertyVerifyScoreBounds: scheduleScore is always within [0, 1].
func TestPropertyVerifyScoreBounds(t *testing.T) {
	dump, _, _ := buildScrambledDump(t, 256<<10, 78, workloadLight())
	mine, _ := MineKeys(context.Background(), dump, MineOptions{})
	dir := AllKeysDirectory(mine)
	f := func(master [32]byte, start uint16) bool {
		s := scheduleScore(dump, dir, aes.ExpandKeyBytes(master[:]), int(start))
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
