package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"coldboot/internal/aes"
	"coldboot/internal/bitutil"
	"coldboot/internal/scramble"
	"coldboot/internal/workload"
)

// decayBits flips n random bits across buf, mirroring asymmetric-agnostic
// decay used by the attack scenario tests.
func decayBits(buf []byte, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		bit := rng.Intn(len(buf) * 8)
		buf[bit/8] ^= 1 << uint(bit%8)
	}
}

// TestMineKeysParity: the production miner (content slab + probe table +
// pigeonhole merge) must reproduce the seed map-based miner exactly,
// including merge order, majority votes, and position ordering.
func TestMineKeysParity(t *testing.T) {
	cases := []struct {
		name  string
		size  int
		seed  int64
		decay int
		opt   MineOptions
	}{
		{"clean_512KiB", 512 << 10, 11, 0, MineOptions{}},
		{"decay_0.1pct", 512 << 10, 12, 512 << 10 / 125, MineOptions{}},
		{"decay_1pct_merge", 256 << 10, 13, 256 << 10 * 8 / 100, MineOptions{}},
		{"merge_distance_4", 256 << 10, 14, 256 << 10 / 50, MineOptions{MergeDistance: 4}},
		// Decayed groups far outnumber the 4096 canonicals, so the segment
		// index grows from its initial size many times over.
		{"decay_0.3pct_4MiB", 4 << 20, 18, 4 << 20 * 8 * 3 / 1000, MineOptions{}},
		// Segments narrower than a byte: the linear canonical scan.
		{"merge_distance_64_linear", 256 << 10, 19, 256 << 10 * 8 * 3 / 1000, MineOptions{MergeDistance: 64}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.size > 1<<20 {
				t.Skip("serial differential oracle: the quadratic reference merge is too slow under the race detector")
			}
			dump := buildAttackDump(t, tc.size, tc.seed, workload.LightSystem,
				testMaster(tc.seed*7, 32), 100*BlockBytes)
			if tc.decay > 0 {
				decayBits(dump, tc.seed+1000, tc.decay)
			}
			got, err := MineKeys(context.Background(), dump, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			assertMineParity(t, got, refMineKeys(dump, tc.opt))
		})
	}
}

// TestMineKeysParityPrefixTies plants groups with equal sighting counts
// whose merge depends on the order the sort puts them in. Each key K is
// planted as A = K, B = A plus 2 flips and C = B plus 2 more flips past the
// first 8 bytes. With MergeDistance 3, A and C are too far apart to merge,
// so whichever of the three comes first decides how they fold into
// canonicals. B and C always share their first 8 bytes, so only the
// full-representative tie-break orders them; for odd keys B's flips fall
// in the first 8 bytes, so the prefix orders A against B and C.
func TestMineKeysParityPrefixTies(t *testing.T) {
	const copies = 3
	opt := MineOptions{MergeDistance: 3}
	s := scramble.NewSkylakeDDR4(23)
	rng := rand.New(rand.NewSource(23))
	dump := make([]byte, 1024*BlockBytes)
	rng.Read(dump)
	pos := rng.Perm(len(dump) / BlockBytes)
	flipped := func(v []byte, bits ...int) []byte {
		v = append([]byte(nil), v...)
		for _, bit := range bits {
			v[bit/8] ^= 1 << uint(bit%8)
		}
		return v
	}
	for k := 0; k < 32; k++ {
		a := s.KeyAt(uint64(k) * BlockBytes)
		past := rng.Perm(BlockBytes*8 - 64) // distinct bits past the prefix
		b := flipped(a, 64+past[0], 64+past[1])
		if k%2 == 1 {
			first := rng.Perm(64)
			b = flipped(a, first[0], first[1])
		}
		c := flipped(b, 64+past[2], 64+past[3])
		for _, v := range [][]byte{a, b, c} {
			if !PassesKeyLitmus(v, DefaultLitmusTolerance) {
				t.Fatalf("key %d: planted variant fails the litmus", k)
			}
			for i := 0; i < copies; i++ {
				copy(dump[pos[0]*BlockBytes:], v)
				pos = pos[1:]
			}
		}
	}
	got, err := MineKeys(context.Background(), dump, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertMineParity(t, got, refMineKeys(dump, opt))
}

// TestMineKeysParitySingletonChains plants the cases the three-step merge
// must order exactly like the reference. Every block passes the litmus
// (tolerance 256), so the random filler is a few thousand singletons that
// match nothing: enough to fan the step-2 lookups out, and all merged in
// step 3. Per key K, seen twice (a step-1 canonical):
//
//   - S1 = K + 10 flips and S2 = K + another 10 flips match K in step 2;
//   - U = K + 20 flips, S2's 10 among them, is too far from K, so it is
//     left to step 3, although S2 is within 10 bits of it too: S2 must
//     still join K, the lower-indexed canonical;
//   - T1 and T2 add 3 and 5 flips of their own to U: U, T1 and T2 merge
//     in step 3 into whichever of them sorts first.
//
// A key V seen only as singletons is built entirely in step 3, as the
// chain V, V + 10 flips, V + 20 flips: the ends are 20 bits apart, so only
// the reference order decides whether the chain folds into one key or two.
// Finally P and Q = P + 24 flips, each seen twice, are step-1 canonicals
// close enough that neither is lone, and R, 12 flips from each, shares its
// first segment with Q alone: its lookup must not stop at Q when P is the
// lower-indexed canonical.
func TestMineKeysParitySingletonChains(t *testing.T) {
	opt := MineOptions{Tolerance: 256}
	rng := rand.New(rand.NewSource(29))
	dump := make([]byte, 5000*BlockBytes)
	rng.Read(dump)
	free := rng.Perm(len(dump) / BlockBytes)
	plant := func(v []byte) {
		copy(dump[free[0]*BlockBytes:], v)
		free = free[1:]
	}
	flipped := func(v []byte, bits []int) []byte {
		v = append([]byte(nil), v...)
		for _, bit := range bits {
			v[bit/8] ^= 1 << uint(bit%8)
		}
		return v
	}
	for k := 0; k < 24; k++ {
		key := make([]byte, BlockBytes)
		rng.Read(key)
		b := rng.Perm(BlockBytes * 8)
		plant(key)
		plant(key)
		plant(flipped(key, b[:10]))
		plant(flipped(key, b[10:20]))
		u := flipped(key, b[10:30])
		plant(u)
		plant(flipped(u, b[30:33]))
		plant(flipped(u, b[33:38]))

		only := make([]byte, BlockBytes)
		rng.Read(only)
		plant(only)
		plant(flipped(only, b[:10]))
		plant(flipped(only, b[:20]))

		p := make([]byte, BlockBytes)
		rng.Read(p)
		far := rng.Perm(BlockBytes*8 - 64) // bits past the first segment
		diff := []int{1, 6, 11, 17}        // bits inside the first segment
		for _, bit := range far[:20] {
			diff = append(diff, 64+bit)
		}
		q := flipped(p, diff)
		for _, v := range [][]byte{p, p, q, q, flipped(p, diff[:12])} {
			plant(v)
		}
	}
	got, err := MineKeys(context.Background(), dump, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := refMineKeys(dump, opt)
	assertMineParity(t, got, want)
	if n := len(want.Keys); n < 4000 {
		t.Fatalf("only %d mined keys: the filler did not reach step 3", n)
	}
}

// cancelAfterSource serves a dump through ReadBlocks only and cancels its
// context once the reads-th read has been served.
type cancelAfterSource struct {
	BlockSource
	reads  int
	cancel context.CancelFunc
}

func (s *cancelAfterSource) ReadBlocks(first int, buf []byte) error {
	if s.reads--; s.reads == 0 {
		s.cancel()
	}
	return s.BlockSource.ReadBlocks(first, buf)
}

// TestMineKeysParityCancelled: a mine cancelled mid-scan must return
// exactly what the reference mines from the prefix it scanned.
func TestMineKeysParityCancelled(t *testing.T) {
	const reads = 3
	dump := buildAttackDump(t, 512<<10, 21, workload.LightSystem, testMaster(147, 32), 100*BlockBytes)
	decayBits(dump, 1021, len(dump)*8*3/1000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := MineKeysSource(ctx, &cancelAfterSource{BytesSource(dump), reads, cancel}, MineOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if want := reads * mineCancelInterval; got.BlocksScanned != want {
		t.Fatalf("scanned %d blocks, want %d", got.BlocksScanned, want)
	}
	assertMineParity(t, got, refMineKeys(dump[:got.BlocksScanned*BlockBytes], MineOptions{}))
}

// forceMineWorkers splits every fanned-out mining pass n ways for the
// rest of the test, so small dumps take the multi-range paths.
func forceMineWorkers(t *testing.T, n int) {
	t.Helper()
	old := mineWorkers
	mineWorkers = n
	t.Cleanup(func() { mineWorkers = old })
}

// TestMineKeysParityPartitioned runs the parity scenarios with every pass
// forced onto three goroutines: three block ranges and their merge, and
// three runs of lookups, neighbour checks and votes. It runs under the
// race detector too (make race).
func TestMineKeysParityPartitioned(t *testing.T) {
	forceMineWorkers(t, 3)
	cases := []struct {
		name  string
		seed  int64
		decay int
		opt   MineOptions
	}{
		{"clean", 31, 0, MineOptions{}},
		{"decay_0.3pct", 32, 256 << 10 * 8 * 3 / 1000, MineOptions{}},
		{"merge_distance_4", 33, 256 << 10 / 50, MineOptions{MergeDistance: 4}},
		{"merge_distance_64_linear", 36, 256 << 10 * 8 * 3 / 1000, MineOptions{MergeDistance: 64}},
		{"every_block_passes", 37, 256 << 10 * 8 / 100, MineOptions{Tolerance: 256}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dump := buildAttackDump(t, 256<<10, tc.seed, workload.LightSystem,
				testMaster(tc.seed*7, 32), 100*BlockBytes)
			decayBits(dump, tc.seed+1000, tc.decay)
			got, err := MineKeys(context.Background(), dump, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			assertMineParity(t, got, refMineKeys(dump, tc.opt))
		})
	}
	// 1 MiB holds each key at least twice, in different ranges, so the
	// merge joins later ranges' groups to earlier ones.
	t.Run("repeats_across_ranges", func(t *testing.T) {
		dump := buildAttackDump(t, 1<<20, 40, workload.LightSystem, testMaster(280, 32), 100*BlockBytes)
		decayBits(dump, 1040, len(dump)*8/1000)
		got, err := MineKeys(context.Background(), dump, MineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertMineParity(t, got, refMineKeys(dump, MineOptions{}))
		rangeBlocks := (len(dump)/BlockBytes/mineCancelInterval + 2) / 3 * mineCancelInterval
		spanning := 0
		for _, k := range got.Keys {
			if k.Positions[0]/rangeBlocks != k.Positions[k.Count-1]/rangeBlocks {
				spanning++
			}
		}
		if spanning == 0 {
			t.Fatal("no key was sighted in two ranges")
		}
	})
	t.Run("streamed", func(t *testing.T) {
		dump := buildAttackDump(t, 256<<10, 38, workload.LightSystem, testMaster(266, 32), 100*BlockBytes)
		decayBits(dump, 1038, len(dump)*8*3/1000)
		got, err := MineKeysSource(context.Background(), &windowLog{BlockSource: BytesSource(dump)}, MineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertMineParity(t, got, refMineKeys(dump, MineOptions{}))
	})
}

// windowLog serves a dump through ReadBlocks only, records each window
// read, and cancels its context at the cancelAt-th read. It is safe for
// the miner's concurrent ranges.
type windowLog struct {
	BlockSource
	mu       sync.Mutex
	reads    int
	cancelAt int
	cancel   context.CancelFunc
	windows  [][2]int // first block, blocks
}

func (s *windowLog) ReadBlocks(first int, buf []byte) error {
	s.mu.Lock()
	s.reads++
	if s.reads == s.cancelAt {
		s.cancel()
	}
	s.windows = append(s.windows, [2]int{first, len(buf) / BlockBytes})
	s.mu.Unlock()
	return s.BlockSource.ReadBlocks(first, buf)
}

// TestMineKeysParityPartitionedCancelled: a mine cancelled while three
// ranges scan must return promptly with ctx.Err() and exactly what the
// reference mines from the windows it read. The reference sees the dump
// with every unread window overwritten by blocks that fail the litmus.
func TestMineKeysParityPartitionedCancelled(t *testing.T) {
	forceMineWorkers(t, 3)
	dump := buildAttackDump(t, 512<<10, 39, workload.LightSystem, testMaster(273, 32), 100*BlockBytes)
	decayBits(dump, 1039, len(dump)*8*3/1000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &windowLog{BlockSource: BytesSource(dump), cancelAt: 4, cancel: cancel}
	got, err := MineKeysSource(ctx, src, MineOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	nBlocks := len(dump) / BlockBytes
	read := make([]bool, nBlocks)
	scanned := 0
	for _, w := range src.windows {
		for b := w[0]; b < w[0]+w[1]; b++ {
			read[b] = true
		}
		scanned += w[1]
	}
	// Each range reads at most one window after the cancel.
	if len(src.windows) > src.cancelAt+2 || scanned >= nBlocks {
		t.Fatalf("read %d windows (%d of %d blocks) after cancelling at read %d", len(src.windows), scanned, nBlocks, src.cancelAt)
	}
	if got.BlocksScanned != scanned {
		t.Fatalf("scanned %d blocks, read %d", got.BlocksScanned, scanned)
	}
	masked := append([]byte(nil), dump...)
	noise := rand.New(rand.NewSource(39))
	for b, ok := range read {
		if ok {
			continue
		}
		block := masked[b*BlockBytes : (b+1)*BlockBytes]
		for noise.Read(block); PassesKeyLitmus(block, DefaultLitmusTolerance); noise.Read(block) {
		}
	}
	want := refMineKeys(masked, MineOptions{})
	want.BlocksScanned = scanned
	assertMineParity(t, got, want)
}

func assertMineParity(t *testing.T, got, want *MineResult) {
	t.Helper()
	if got.BlocksScanned != want.BlocksScanned || got.BlocksPassed != want.BlocksPassed {
		t.Fatalf("counters: got (%d scanned, %d passed), want (%d, %d)",
			got.BlocksScanned, got.BlocksPassed, want.BlocksScanned, want.BlocksPassed)
	}
	if len(got.Keys) != len(want.Keys) {
		t.Fatalf("key count: got %d, want %d", len(got.Keys), len(want.Keys))
	}
	for i := range want.Keys {
		if !reflect.DeepEqual(got.Keys[i], want.Keys[i]) {
			t.Fatalf("key %d differs:\n got  %+v\n want %+v", i, got.Keys[i], want.Keys[i])
		}
	}
}

// TestAESLitmusParity: the prefiltered litmus must produce the identical hit
// list as the seed scan on clean schedules, decayed schedules, and noise.
func TestAESLitmusParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	block := make([]byte, BlockBytes)
	for _, v := range []aes.Variant{aes.AES128, aes.AES192, aes.AES256} {
		sched := aes.ExpandKeyBytes(testMaster(int64(v.Nk()), v.KeyBytes()))
		for trial := 0; trial < 400; trial++ {
			switch trial % 4 {
			case 0: // pure noise
				rng.Read(block)
			case 1: // clean schedule fragment at a random alignment
				off := rng.Intn(len(sched) - BlockBytes)
				copy(block, sched[off:off+BlockBytes])
			case 2: // decayed schedule fragment
				off := rng.Intn(len(sched) - BlockBytes)
				copy(block, sched[off:off+BlockBytes])
				for i := 0; i < 1+rng.Intn(8); i++ {
					bit := rng.Intn(BlockBytes * 8)
					block[bit/8] ^= 1 << uint(bit%8)
				}
			case 3: // low-entropy block (degenerate-ish)
				b := byte(rng.Intn(4))
				for i := range block {
					block[i] = b
				}
			}
			for _, tol := range []int{0, DefaultAESTolerance, 12} {
				got := AESLitmus(block, v, tol)
				want := refAESLitmus(block, v, tol)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v tol %d trial %d: hits differ\n got  %+v\n want %+v\nblock % x",
						v, tol, trial, got, want, block)
				}
			}
		}
	}
}

// checkRepairContract holds a scratch repair to its contract against the
// frozen reference search: where the reference reaches minScore, the
// repair returns the same master with the same score; where it does not,
// the repair reports failure.
func checkRepairContract(t *testing.T, name string, got []byte, gotScore float64, ok bool, want []byte, wantScore, minScore float64) {
	t.Helper()
	if wantScore < minScore {
		if ok {
			t.Fatalf("%s: reference reached %v < %v, but repair reports (% x, %v)", name, wantScore, minScore, got, gotScore)
		}
		return
	}
	if !ok || gotScore != wantScore || !bytes.Equal(got, want) {
		t.Fatalf("%s parity: got (% x, %v, ok=%v) want (% x, %v)", name, got, gotScore, ok, want, wantScore)
	}
}

// TestVerifyRepairParity: direct comparisons of the scratch-based verify,
// repair, ground-repair, and refine stages against the seed references on a
// live ground scenario (real directory, real decayed windows).
func TestVerifyRepairParity(t *testing.T) {
	if raceEnabled {
		t.Skip("serial differential oracle: nothing for the race detector, and the reference search is too slow under it")
	}
	dump, groundDump, master, tableStart := buildGroundScenario(t, 2)
	mine, err := MineKeys(context.Background(), dump, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stride := mine.InferStride()
	if stride == 0 {
		t.Fatal("ground scenario produced no stride")
	}
	directory := ResidueDirectory(mine, stride)
	v := aes.AES256

	headBlock := tableStart / BlockBytes
	stored := dump[headBlock*BlockBytes : (headBlock+1)*BlockBytes]
	descrambled := make([]byte, BlockBytes)
	var anyHit bool
	for _, key := range directory(headBlock) {
		bitutil.XORBlock64(descrambled, stored, key)
		hits := AESLitmus(descrambled, v, DefaultAESTolerance)
		if wantHits := refAESLitmus(descrambled, v, DefaultAESTolerance); !reflect.DeepEqual(hits, wantHits) {
			t.Fatalf("litmus parity on ground block: got %+v want %+v", hits, wantHits)
		}
		for _, hit := range hits {
			anyHit = true
			// The hunt's master derivation: backward extension of the
			// hit's window into a reused buffer.
			words := aes.BytesToWords(descrambled)
			gm := aes.RecoverMasterKeyInto(nil, words[hit.WordOffset:hit.WordOffset+v.Nk()], hit.ScheduleIndex, v)
			if wm := refMasterFromHit(descrambled, hit, v); !reflect.DeepEqual(gm, wm) {
				t.Fatalf("hit master parity: got % x want % x", gm, wm)
			}
			gs := scheduleScore(dump, directory, aes.ExpandKeyBytes(gm), hit.TableStart(headBlock))
			if ws := refVerifySchedule(dump, directory, gm, hit.TableStart(headBlock), v); gs != ws {
				t.Fatalf("scheduleScore parity: got %v want %v", gs, ws)
			}

			var scratch repairScratch
			rm, rs, rok := repairWindowScratch(&scratch, dump, nil, directory, descrambled, headBlock, hit, v)
			wrm, wrs := refRepairWindow(dump, directory, descrambled, headBlock, hit, v, 1, minVerifyScore)
			checkRepairContract(t, "blind repairWindowScratch", rm, rs, rok, wrm, wrs, minVerifyScore)

			gmaster, gscore, gok := repairWindowScratch(&scratch, dump, groundDump, directory, descrambled,
				headBlock, hit, v)
			wgm, wgs := refRepairWindowGround(dump, groundDump, directory, descrambled,
				headBlock, hit, v, groundRepairFlips, minVerifyScore)
			checkRepairContract(t, "ground repairWindowScratch", gmaster, gscore, gok, wgm, wgs, minVerifyScore)

			fm, fs := refineMasterScratch(&scratch, dump, directory, append([]byte{}, wgm...), tableStart, v)
			wfm, wfs := refRefineMaster(dump, directory, wgm, tableStart, v)
			if fs != wfs || !reflect.DeepEqual(fm, wfm) {
				t.Fatalf("refineMasterScratch parity: got (% x, %v) want (% x, %v)", fm, fs, wfm, wfs)
			}
			if string(fm) != string(master) {
				t.Fatalf("refined master % x != planted % x", fm, master)
			}
		}
	}
	if !anyHit {
		t.Fatal("ground scenario produced no litmus hits on the head block")
	}
}

// TestAttackPipelineParity is the tentpole oracle: the pooled, cached,
// memoized pipeline (Workers: 1 for deterministic ordering) must emit
// byte-identical results to the frozen seed pipeline on every scenario,
// including both repair paths and the exhaustive directory.
func TestAttackPipelineParity(t *testing.T) {
	if raceEnabled {
		t.Skip("serial differential oracle (Workers: 1 vs verbatim seed copies): nothing for the race detector, and the reference pipeline is too slow under it")
	}
	type scenario struct {
		name  string
		build func(t *testing.T) ([]byte, Config)
	}
	scenarios := []scenario{
		{"clean_scrambled_1MiB", func(t *testing.T) ([]byte, Config) {
			dump := buildAttackDump(t, 1<<20, 61, workload.LightSystem,
				testMaster(601, 32), 4096*BlockBytes+128)
			return dump, Config{Workers: 1}
		}},
		{"decay_repair1", func(t *testing.T) ([]byte, Config) {
			dump := buildAttackDump(t, 1<<20, 62, workload.LightSystem,
				testMaster(602, 32), 2048*BlockBytes)
			decayBits(dump, 620, len(dump)*8/2000)
			return dump, Config{Workers: 1, RepairFlips: 1}
		}},
		{"corrupt_window_repair2", func(t *testing.T) ([]byte, Config) {
			dump := buildAttackDump(t, 1<<20, 63, workload.LightSystem,
				testMaster(603, 32), 1024*BlockBytes)
			// Flip a bit in the first word of several interior table blocks so
			// window repair has real work; RepairFlips 2 searches single
			// flips, as 1 does.
			for _, blk := range []int{1025, 1026, 1027} {
				dump[blk*BlockBytes+2] ^= 0x20
			}
			return dump, Config{Workers: 1, RepairFlips: 2}
		}},
		{"ground_dump", func(t *testing.T) ([]byte, Config) {
			dump, groundDump, _, _ := buildGroundScenario(t, 2)
			return dump, Config{Workers: 1, GroundDump: groundDump}
		}},
		{"exhaustive_small", func(t *testing.T) ([]byte, Config) {
			dump := buildAttackDump(t, 256<<10, 64, workload.LightSystem,
				testMaster(604, 32), 512*BlockBytes)
			return dump, Config{Workers: 1, KeysForBlock: AllKeysDirectory(refMineKeys(dump, MineOptions{Tolerance: DefaultLitmusTolerance}))}
		}},
		// Built like the decay-repair benchmark workload (16 masters,
		// -25 °C / 0.5 s retention decay), where almost every repair call
		// is spent on application-data hits that never verify.
		{"decay_repair_density_repair1", func(t *testing.T) ([]byte, Config) {
			dump, _, _ := buildDecayRepairDump(t, 1<<20, 16, 1703)
			return dump, Config{Workers: 1, RepairFlips: 1}
		}},
		{"decay_repair_density_repair2", func(t *testing.T) ([]byte, Config) {
			dump, _, _ := buildDecayRepairDump(t, 512<<10, 16, 1704)
			return dump, Config{Workers: 1, RepairFlips: 2}
		}},
		{"aes128_variant", func(t *testing.T) ([]byte, Config) {
			dump := buildAttackDump(t, 512<<10, 65, workload.LightSystem,
				testMaster(605, 16), 1000*BlockBytes)
			decayBits(dump, 650, len(dump)*8/4000)
			return dump, Config{Workers: 1, Variant: aes.AES128, RepairFlips: 1}
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dump, cfg := sc.build(t)
			got, err := Attack(context.Background(), dump, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := refAttack(dump, cfg)

			if got.Stride != want.Stride {
				t.Errorf("Stride: got %d, want %d", got.Stride, want.Stride)
			}
			if got.Coverage != want.Coverage {
				t.Errorf("Coverage: got %v, want %v", got.Coverage, want.Coverage)
			}
			if got.BlocksScanned != want.BlocksScanned {
				t.Errorf("BlocksScanned: got %d, want %d", got.BlocksScanned, want.BlocksScanned)
			}
			if got.PairsTested != want.PairsTested {
				t.Errorf("PairsTested: got %d, want %d", got.PairsTested, want.PairsTested)
			}
			if !reflect.DeepEqual(got.Mine.Keys, want.Mine.Keys) {
				t.Errorf("Mine.Keys differ: got %d keys, want %d", len(got.Mine.Keys), len(want.Mine.Keys))
			}
			if len(got.Keys) != len(want.Keys) {
				t.Fatalf("Keys: got %d, want %d\n got  %+v\n want %+v",
					len(got.Keys), len(want.Keys), got.Keys, want.Keys)
			}
			for i := range want.Keys {
				// The refactored pipeline tags every native-hunt key with the
				// aesxts format; the frozen reference predates tagging. Assert
				// the tag, then compare the rest byte-for-byte.
				g := got.Keys[i]
				if g.Format != FormatAESXTS {
					t.Errorf("key %d format: got %q, want %q", i, g.Format, FormatAESXTS)
				}
				g.Format, g.Volume = "", ""
				if !reflect.DeepEqual(g, want.Keys[i]) {
					t.Errorf("key %d differs:\n got  %+v\n want %+v", i, g, want.Keys[i])
				}
			}
		})
	}
}
