package keyfind

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"coldboot/internal/aes"
	"coldboot/internal/workload"
)

func imageWithKey(t testing.TB, size int, seed int64, v aes.Variant, off int) ([]byte, []byte) {
	t.Helper()
	img := make([]byte, size)
	if err := workload.Fill(img, seed, workload.LoadedSystem); err != nil {
		t.Fatal(err)
	}
	key := make([]byte, v.KeyBytes())
	rand.New(rand.NewSource(seed * 31)).Read(key)
	copy(img[off:], aes.ExpandKeyBytes(key))
	return img, key
}

// mustScan runs Scan with no tracer and fails t on error.
func mustScan(t testing.TB, img []byte, v aes.Variant, tolerance, workers int) []Finding {
	t.Helper()
	out, err := Scan(context.Background(), img, v, tolerance, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScanFindsPlantedKeys(t *testing.T) {
	for _, v := range []aes.Variant{aes.AES128, aes.AES192, aes.AES256} {
		const off = 123457 // deliberately unaligned
		img, key := imageWithKey(t, 1<<20, 7, v, off)
		finds := mustScan(t, img, v, 0, 0)
		if len(finds) != 1 {
			t.Fatalf("%v: %d findings, want 1", v, len(finds))
		}
		if finds[0].Offset != off || !bytes.Equal(finds[0].Master, key) {
			t.Errorf("%v: wrong finding %+v", v, finds[0])
		}
	}
}

func TestScanToleratesDecay(t *testing.T) {
	const off = 4096
	img, key := imageWithKey(t, 1<<19, 8, aes.AES256, off)
	// Flip a couple of bits in the schedule TAIL (not the master bytes).
	img[off+100] ^= 0x01
	img[off+200] ^= 0x80
	finds := mustScan(t, img, aes.AES256, DefaultTolerance, 0)
	if len(finds) != 1 || !bytes.Equal(finds[0].Master, key) {
		t.Fatalf("decayed schedule not found: %+v", finds)
	}
	if finds[0].Distance != 2 {
		t.Errorf("distance = %d, want 2", finds[0].Distance)
	}
}

func TestScanNoFalsePositives(t *testing.T) {
	img := make([]byte, 1<<20)
	if err := workload.Fill(img, 9, workload.LoadedSystem); err != nil {
		t.Fatal(err)
	}
	if finds := mustScan(t, img, aes.AES256, DefaultTolerance, 0); len(finds) != 0 {
		t.Errorf("%d phantom keys found", len(finds))
	}
}

func TestScanMultipleKeys(t *testing.T) {
	img := make([]byte, 1<<19)
	workload.Fill(img, 10, workload.LoadedSystem)
	k1 := make([]byte, 32)
	k2 := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(k1)
	rand.New(rand.NewSource(2)).Read(k2)
	copy(img[1000:], aes.ExpandKeyBytes(k1))
	copy(img[200000:], aes.ExpandKeyBytes(k2))
	finds := mustScan(t, img, aes.AES256, 0, 0)
	if len(finds) != 2 {
		t.Fatalf("%d findings, want 2", len(finds))
	}
	if !bytes.Equal(finds[0].Master, k1) || !bytes.Equal(finds[1].Master, k2) {
		t.Error("wrong masters recovered")
	}
}

func TestScanAdjacentXTSSchedules(t *testing.T) {
	// The VeraCrypt memory footprint: two adjacent schedules.
	img := make([]byte, 1<<19)
	workload.Fill(img, 11, workload.LoadedSystem)
	k1 := make([]byte, 32)
	k2 := make([]byte, 32)
	rand.New(rand.NewSource(3)).Read(k1)
	rand.New(rand.NewSource(4)).Read(k2)
	copy(img[5000:], aes.ExpandKeyBytes(k1))
	copy(img[5240:], aes.ExpandKeyBytes(k2))
	finds := mustScan(t, img, aes.AES256, 0, 0)
	if len(finds) != 2 {
		t.Fatalf("%d findings, want 2", len(finds))
	}
}

func TestScanFailsOnScrambledImage(t *testing.T) {
	// The motivating negative result: the Halderman scan is useless on a
	// scrambled dump (this is why the paper's attack exists).
	img, _ := imageWithKey(t, 1<<19, 12, aes.AES256, 8192)
	// "Scramble" with a toy XOR so the schedule structure is destroyed.
	for i := range img {
		img[i] ^= byte(0xA5 ^ (i >> 6)) // per-block-varying mask
	}
	if finds := mustScan(t, img, aes.AES256, DefaultTolerance, 0); len(finds) != 0 {
		t.Errorf("scan found %d keys in scrambled image", len(finds))
	}
}

func BenchmarkScan1MB(b *testing.B) {
	img, _ := imageWithKey(b, 1<<20, 13, aes.AES256, 500000)
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustScan(b, img, aes.AES256, DefaultTolerance, 0)
	}
}
