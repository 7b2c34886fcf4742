package core

import (
	"context"
	"reflect"
	"testing"

	"coldboot/internal/aes"
	"coldboot/internal/bitutil"
	"coldboot/internal/scramble"
)

// Fuzz targets: the attack parses adversarial memory dumps, so nothing in
// the hot path may panic on arbitrary bytes.

func FuzzKeyLitmus(f *testing.F) {
	f.Add(make([]byte, 64))
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, block []byte) {
		if len(block) != 64 {
			return
		}
		d := KeyLitmusDistance(block)
		if d < 0 || d > 256 {
			t.Fatalf("litmus distance %d out of range", d)
		}
	})
}

// litmusVariants maps a fuzzed selector byte onto a variant.
var litmusVariants = []aes.Variant{aes.AES128, aes.AES192, aes.AES256}

// scheduleBlock returns 16 schedule words of a fixed master of variant v,
// starting at schedule word first.
func scheduleBlock(v aes.Variant, first int) []byte {
	sched := aes.ExpandKeyBytes(testMaster(int64(v.Nk()), v.KeyBytes()))
	return append([]byte(nil), sched[4*first:4*first+BlockBytes]...)
}

// FuzzAESLitmus is differential: the class-prefiltered litmus must return
// exactly the seed scan's hits for every block and variant. The seeds put
// a live window of each step class at word 0: identity (AES-128 from
// schedule word 1), rotate (AES-192 from word 6, with a flipped bit) and
// AES-256's subword class (from word 4).
func FuzzAESLitmus(f *testing.F) {
	f.Add(make([]byte, 64), uint8(0))
	f.Add(scheduleBlock(aes.AES128, 1), uint8(0))
	rot := scheduleBlock(aes.AES192, 6)
	rot[4*6+1] ^= 0x10
	f.Add(rot, uint8(1))
	f.Add(scheduleBlock(aes.AES256, 4), uint8(2))
	f.Fuzz(func(t *testing.T, block []byte, variant uint8) {
		if len(block) != 64 {
			return
		}
		v := litmusVariants[int(variant)%len(litmusVariants)]
		got := AESLitmus(block, v, DefaultAESTolerance)
		if want := refAESLitmus(block, v, DefaultAESTolerance); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: hits differ\n got  %+v\n want %+v", v, got, want)
		}
		for _, h := range got {
			// Master derivation must not panic either.
			if m := hitMaster(block, h, v); len(m) != v.KeyBytes() {
				t.Fatalf("master length %d", len(m))
			}
		}
	})
}

// FuzzMineKeys is differential: the three-step merge must return exactly
// the seed miner's result. The litmus tolerance and merge distance are
// fuzzed too (0 means the default), so arbitrary bytes pass the litmus and
// merge; distances of 64 and more take the linear canonical scan.
func FuzzMineKeys(f *testing.F) {
	f.Add(make([]byte, 256), uint8(0), uint8(0))
	keys := make([]byte, 16*BlockBytes)
	s := scramble.NewSkylakeDDR4(5)
	for i := 0; i < 16; i++ {
		copy(keys[i*BlockBytes:], s.KeyAt(uint64(i%5)*BlockBytes))
	}
	decayBits(keys, 5, 12)
	f.Add(keys, uint8(0), uint8(0))
	f.Add(keys, uint8(255), uint8(70))
	f.Fuzz(func(t *testing.T, dump []byte, tolerance, mergeDistance uint8) {
		dump = dump[:len(dump)&^63]
		if len(dump) == 0 {
			return
		}
		opt := MineOptions{Tolerance: int(tolerance), MergeDistance: int(mergeDistance % 80)}
		res, err := MineKeys(context.Background(), dump, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertMineParity(t, res, refMineKeys(dump, opt))
	})
}

// FuzzPlanFromWire: a frame DecodeWirePlan accepts holds the miner's
// invariants, re-encodes to a frame that decodes to the same plan, and
// builds a worker-side plan that can scan a shard. Seeds are a mined
// plan's frame and its truncations.
func FuzzPlanFromWire(f *testing.F) {
	dump := make([]byte, 64*BlockBytes)
	s := scramble.NewSkylakeDDR4(9)
	for b := 0; b < 64; b += 3 {
		copy(dump[b*BlockBytes:], s.KeyAt(uint64(b%8)*BlockBytes))
	}
	mine, err := MineKeys(context.Background(), dump, MineOptions{})
	if err != nil {
		f.Fatal(err)
	}
	frame, err := EncodeWirePlan(&WirePlan{
		Variant: aes.AES256, Formats: []string{FormatAESXTS},
		Stride: mine.InferStride(), TotalBlocks: 64, Mine: mine,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame)
	f.Add(frame[:len(frame)/2])
	f.Add(appendWirePlan(nil, smallWirePlan()))
	f.Fuzz(func(t *testing.T, frame []byte) {
		w, err := DecodeWirePlan(frame)
		if err != nil {
			return
		}
		owner := make(map[int]bool)
		for _, k := range w.Mine.Keys {
			if len(k.Key) != BlockBytes || k.Count != len(k.Positions) || k.Count == 0 {
				t.Fatalf("accepted key of %d bytes, count %d, %d positions", len(k.Key), k.Count, len(k.Positions))
			}
			for i, p := range k.Positions {
				if p >= w.TotalBlocks || (i > 0 && p <= k.Positions[i-1]) || owner[p] {
					t.Fatalf("accepted positions %v of %d blocks", k.Positions, w.TotalBlocks)
				}
				owner[p] = true
			}
		}
		again, err := EncodeWirePlan(w)
		if err != nil {
			t.Fatalf("accepted plan does not encode: %v", err)
		}
		if w2, err := DecodeWirePlan(again); err != nil || !reflect.DeepEqual(w2, w) {
			t.Fatalf("re-encoded plan decodes to %+v, %v; want %+v", w2, err, w)
		}
		p, err := PlanFromWire(w, nil)
		if err != nil {
			t.Fatalf("accepted plan does not build: %v", err)
		}
		defer p.Close()
		// A small plan also scans: its skip set and directory come from the
		// decoded positions, which must index the shard safely.
		if w.TotalBlocks <= 64 {
			sh := Shard{Blocks: w.TotalBlocks}
			if _, err := p.ScanShardBytes(context.Background(), make([]byte, sh.Blocks*BlockBytes), sh, nil); err != nil {
				t.Fatalf("accepted plan does not scan: %v", err)
			}
		}
	})
}

// FuzzRepairBound: on fuzzed dumps, hits and variants, every window
// byte's repair bound is at most the exact mismatch of each single flip in
// that byte, under a directory that lists zero to two keys per block. The
// seed is a dump holding a lightly decayed AES-256 schedule, scrambled
// with the directory's first key of each block.
func FuzzRepairBound(f *testing.F) {
	s := scramble.NewSkylakeDDR4(5)
	ring := make([][]byte, 5)
	for i := range ring {
		ring[i] = s.KeyAt(uint64(i%3) * BlockBytes)
	}
	dump := make([]byte, 8*BlockBytes)
	copy(dump[100:], aes.ExpandKeyBytes(testMaster(26, 32)))
	decayBits(dump, 26, 6)
	for b := 0; b < 8; b++ {
		bitutil.XORBlock64(dump[b*BlockBytes:], dump[b*BlockBytes:], ring[b%3])
	}
	// The window at word 9 of block 2 is schedule word 9 + (2*64-100)/4.
	f.Add(dump, uint8(2), uint8(9), uint8(16), uint8(2), uint8(1))
	f.Add(dump, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(dump[:2*BlockBytes], uint8(1), uint8(12), uint8(40), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, dump []byte, blockSel, wordOffset, schedIndex, variant, keySel uint8) {
		dump = dump[:min(len(dump), 64*BlockBytes)&^(BlockBytes-1)]
		if len(dump) == 0 {
			return
		}
		dir := func(b int) [][]byte {
			return ring[b%3 : b%3+(b+int(keySel))%3]
		}
		v := litmusVariants[int(variant)%len(litmusVariants)]
		nk := v.Nk()
		b := int(blockSel) % (len(dump) / BlockBytes)
		hit := ScheduleHit{
			WordOffset:    int(wordOffset) % (BlockBytes/4 - nk + 1),
			ScheduleIndex: int(schedIndex) % (v.ScheduleWords() - nk + 1),
		}
		block := append([]byte(nil), dump[b*BlockBytes:(b+1)*BlockBytes]...)
		if keys := dir(b); len(keys) > 0 {
			bitutil.XORBlock64(block, block, keys[0])
		}
		var rs repairScratch
		checkRepairBound(t, &rs, dump, dir, block, b, hit, v, v.ScheduleBytes()*8)
	})
}
