package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"coldboot/internal/scramble"
	"coldboot/internal/workload"
)

// buildScrambledDump fills size bytes with the given workload profile,
// scrambles them with a fresh Skylake scrambler, and returns (dump,
// plaintext, scrambler).
func buildScrambledDump(t testing.TB, size int, seed int64, p workload.Profile) ([]byte, []byte, *scramble.SkylakeDDR4) {
	t.Helper()
	plain := make([]byte, size)
	if err := workload.Fill(plain, seed, p); err != nil {
		t.Fatal(err)
	}
	s := scramble.NewSkylakeDDR4(uint64(seed) * 977)
	dump := make([]byte, size)
	s.Scramble(dump, plain, 0)
	return dump, plain, s
}

func TestMineKeysFindsTrueKeys(t *testing.T) {
	dump, plain, s := buildScrambledDump(t, 2<<20, 1, workload.LightSystem)
	res, err := MineKeys(context.Background(), dump, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) == 0 {
		t.Fatal("no keys mined")
	}
	// Every mined key that was sighted at a zero-plaintext block must equal
	// the scrambler's true key for that block.
	checked := 0
	for _, mk := range res.Keys {
		for _, pos := range mk.Positions {
			if !isZeroBlock(plain, pos) {
				continue
			}
			want := s.KeyAt(uint64(pos) * BlockBytes)
			if !bytes.Equal(mk.Key, want) {
				t.Fatalf("mined key at block %d differs from true key", pos)
			}
			checked++
			break
		}
	}
	if checked < 1000 {
		t.Errorf("only %d mined keys verified against truth", checked)
	}
}

func isZeroBlock(plain []byte, blockIdx int) bool {
	for _, b := range plain[blockIdx*BlockBytes : (blockIdx+1)*BlockBytes] {
		if b != 0 {
			return false
		}
	}
	return true
}

func TestMineKeysUnder16MB(t *testing.T) {
	// Key Idea 1: all keys minable from < 16 MB even on a loaded system.
	// At simulation scale: a 4 MB loaded-system dump must cover (nearly)
	// every one of the 4096 address classes.
	dump, _, _ := buildScrambledDump(t, 4<<20, 2, workload.LoadedSystem)
	res, err := MineKeys(context.Background(), dump, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stride := res.InferStride()
	if stride != 4096 {
		t.Fatalf("inferred stride %d, want 4096", stride)
	}
	cov := res.Coverage(stride)
	if cov < 0.95 {
		t.Errorf("coverage = %f, want >= 0.95", cov)
	}
}

func TestMineStrideInference(t *testing.T) {
	dump, _, _ := buildScrambledDump(t, 1<<20, 3, workload.LightSystem)
	res, err := MineKeys(context.Background(), dump, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.InferStride(); got != scramble.SkylakeKeyCount {
		t.Errorf("stride = %d, want %d", got, scramble.SkylakeKeyCount)
	}
}

// TestMineKeysByResidue: the stride directory built from the mined keys
// lists, for every residue with a zero block, the true key.
func TestMineKeysByResidue(t *testing.T) {
	dump, plain, s := buildScrambledDump(t, 1<<20, 4, workload.LightSystem)
	res, _ := MineKeys(context.Background(), dump, MineOptions{})
	stride := res.InferStride()
	dir := ResidueDirectory(res, stride)
	hits := 0
	for b := 0; b < len(plain)/BlockBytes && hits < 500; b++ {
		if !isZeroBlock(plain, b) {
			continue
		}
		want := s.KeyAt(uint64(b) * BlockBytes)
		foundTrue := false
		for _, key := range dir(b) {
			if bytes.Equal(key, want) {
				foundTrue = true
				break
			}
		}
		if !foundTrue {
			t.Fatalf("residue %d key list missing true key", b%stride)
		}
		hits++
	}
}

// TestResidueDirectoryAnyStride: the stride directory and Coverage match
// the reference at strides shorter and longer than the sightings, where
// the directory switches from a table of the stride to a set of the
// sighted residues, up to a stride longer than the dump.
func TestResidueDirectoryAnyStride(t *testing.T) {
	dump, _, _ := buildScrambledDump(t, 1<<20, 6, workload.LightSystem)
	decayBits(dump, 7, len(dump)*8/1000)
	res, err := MineKeys(context.Background(), dump, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := res.sightings()
	if res.InferStride() == 0 {
		t.Fatal("no key repeats")
	}
	for _, stride := range []int{7, res.InferStride(), n, n + 1, 3 * n, 1 << 22} {
		dir, ref := ResidueDirectory(res, stride), refResidueDirectory(res, stride)
		for b := 0; b < len(dump)/BlockBytes+stride%1000; b++ {
			got, want := dir(b), ref(b)
			if len(got) != len(want) {
				t.Fatalf("stride %d block %d: %d keys, want %d", stride, b, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("stride %d block %d: key %d differs", stride, b, i)
				}
			}
		}
		if got, want := res.Coverage(stride), refCoverage(res, stride); got != want {
			t.Fatalf("stride %d: coverage %v, want %v", stride, got, want)
		}
	}
}

func TestMineMajorityVoteRepairsDecay(t *testing.T) {
	// Several decayed sightings of the same key must majority-vote back to
	// the exact key.
	s := scramble.NewSkylakeDDR4(99)
	true0 := s.KeyAt(0)
	rng := rand.New(rand.NewSource(5))
	const copies = 9
	dump := make([]byte, copies*scramble.SkylakeKeyCount*BlockBytes)
	// Place decayed copies of key 0 at positions 0, 4096, 8192, ...
	for c := 0; c < copies; c++ {
		pos := c * scramble.SkylakeKeyCount * BlockBytes
		copy(dump[pos:], true0)
		// flip 2 random bits per copy
		for f := 0; f < 2; f++ {
			bit := rng.Intn(512)
			dump[pos+bit/8] ^= 1 << uint(bit%8)
		}
	}
	// Fill the rest with non-passing noise.
	noise := make([]byte, BlockBytes)
	for b := 1; b < len(dump)/BlockBytes; b++ {
		if b%scramble.SkylakeKeyCount == 0 {
			continue
		}
		rng.Read(noise)
		copy(dump[b*BlockBytes:], noise)
	}
	res, err := MineKeys(context.Background(), dump, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got *MinedKey
	for i := range res.Keys {
		if res.Keys[i].Count >= copies {
			got = &res.Keys[i]
			break
		}
	}
	if got == nil {
		t.Fatal("decayed key copies not merged into one mined key")
	}
	if !bytes.Equal(got.Key, true0) {
		t.Error("majority vote did not recover the exact key")
	}
}

func TestMineRejectsUnalignedDump(t *testing.T) {
	if _, err := MineKeys(context.Background(), make([]byte, 100), MineOptions{}); err == nil {
		t.Error("expected error for unaligned dump")
	}
}

func TestMineOnHostileWorkload(t *testing.T) {
	// Almost no zeros: mining finds few keys, coverage is poor — the
	// honest failure mode.
	dump, _, _ := buildScrambledDump(t, 1<<20, 8, workload.HostileSystem)
	res, _ := MineKeys(context.Background(), dump, MineOptions{})
	stride := res.InferStride()
	if stride != 0 {
		if cov := res.Coverage(stride); cov > 0.5 {
			t.Errorf("hostile workload coverage %f unexpectedly high", cov)
		}
	}
}

func TestMineKeysSortedByCount(t *testing.T) {
	dump, _, _ := buildScrambledDump(t, 1<<20, 9, workload.LightSystem)
	res, _ := MineKeys(context.Background(), dump, MineOptions{})
	for i := 1; i < len(res.Keys); i++ {
		if res.Keys[i].Count > res.Keys[i-1].Count {
			t.Fatal("keys not sorted by count descending")
		}
	}
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 5, 5}, {5, 0, 5}, {12, 8, 4}, {4096, 8192, 4096}, {-6, 9, 3},
	}
	for _, c := range cases {
		if got := gcd(c.a, c.b); got != c.want {
			t.Errorf("gcd(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func BenchmarkMineKeys1MB(b *testing.B) {
	dump, _, _ := buildScrambledDump(b, 1<<20, 10, workload.LoadedSystem)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineKeys(context.Background(), dump, MineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineKeysDecayed mines an 8 MiB light-system dump with 0.3 % of
// its bits flipped, the benchmark's decay regime: most sightings of a key
// are distinct decayed copies, so the near-duplicate merge in finish does
// most of the work. The undecayed BenchmarkMineKeys1MB barely merges.
func BenchmarkMineKeysDecayed(b *testing.B) {
	const size = 8 << 20
	dump, _, _ := buildScrambledDump(b, size, 17, workload.LightSystem)
	decayBits(dump, 1017, size*8*3/1000)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineKeys(context.Background(), dump, MineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
