package keyfind

import (
	"bytes"
	"context"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"coldboot/internal/aes"
	"coldboot/internal/workload"
)

// seedScan is a verbatim copy of the pre-optimization serial scan (byte
// loads per offset, no worker pool). It is the ground truth Scan must
// reproduce exactly at every worker count.
func seedScan(image []byte, v aes.Variant, tolerance int) []Finding {
	if tolerance <= 0 {
		tolerance = DefaultTolerance
	}
	var out []Finding
	keyBytes := v.KeyBytes()
	schedBytes := v.ScheduleBytes()
	nk := v.Nk()
	for off := 0; off+schedBytes <= len(image); off++ {
		window := image[off : off+keyBytes]
		first := seedDeriveWord(window, nk)
		stored := beWord(image[off+keyBytes:])
		if bits.OnesCount32(first^stored) > 4 {
			continue
		}
		sched := aes.ExpandKeyBytes(image[off : off+keyBytes])
		d := 0
		ok := true
		for i := keyBytes; i < schedBytes; i++ {
			d += bits.OnesCount8(sched[i] ^ image[off+i])
			if d > tolerance {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, Finding{
				Offset:   off,
				Master:   append([]byte{}, image[off:off+keyBytes]...),
				Distance: d,
			})
		}
	}
	return out
}

func seedDeriveWord(key []byte, nk int) uint32 {
	prev := beWord(key[4*(nk-1):])
	w0 := beWord(key)
	g := subWordRot(prev) ^ 0x01000000
	return w0 ^ g
}

func sameFindings(a, b []Finding) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Offset != b[i].Offset || a[i].Distance != b[i].Distance ||
			!bytes.Equal(a[i].Master, b[i].Master) {
			return false
		}
	}
	return true
}

// TestScanParityWithSeedImplementation proves Scan returns exactly the seed
// implementation's findings, in the same order, across variants, key
// placements (including chunk boundaries), tolerances, and worker counts
// (workers=1 is the serial path, 0 the per-CPU default).
func TestScanParityWithSeedImplementation(t *testing.T) {
	const size = 1 << 19
	img := make([]byte, size)
	if err := workload.Fill(img, 21, workload.LoadedSystem); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	// Plant schedules at awkward places: unaligned, adjacent (XTS pair),
	// straddling the minChunkBytes boundary, and near the end of the image.
	for _, v := range []aes.Variant{aes.AES128, aes.AES256} {
		offsets := []int{
			12345,
			12345 + v.ScheduleBytes(),      // back-to-back with the previous
			minChunkBytes - v.KeyBytes()/2, // schedule straddles a chunk cut
			size - v.ScheduleBytes() - 3,
		}
		for _, off := range offsets {
			key := make([]byte, v.KeyBytes())
			rng.Read(key)
			copy(img[off:], aes.ExpandKeyBytes(key))
		}
		// A couple of decayed tail bits to exercise the tolerance path.
		img[12345+v.KeyBytes()+9] ^= 0x10
		for _, tolerance := range []int{0, DefaultTolerance} {
			want := seedScan(img, v, tolerance)
			if len(want) == 0 {
				t.Fatalf("%v: seed scan found nothing; test is vacuous", v)
			}
			for _, workers := range []int{0, 1, 2, 3, 8} {
				if got := mustScan(t, img, v, tolerance, workers); !sameFindings(got, want) {
					t.Errorf("%v tol=%d workers=%d: Scan diverged from seed scan",
						v, tolerance, workers)
				}
			}
		}
	}
}

// TestScanParityTinyImages covers the degenerate sizes: empty, smaller than
// one schedule, exactly one schedule.
func TestScanParityTinyImages(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	v := aes.AES256
	for _, size := range []int{0, 1, v.ScheduleBytes() - 1, v.ScheduleBytes(), v.ScheduleBytes() + 7} {
		img := make([]byte, size)
		rng.Read(img)
		want := seedScan(img, v, 0)
		for _, workers := range []int{1, 4} {
			if got := mustScan(t, img, v, 0, workers); !sameFindings(got, want) {
				t.Errorf("size %d workers=%d: parity broken", size, workers)
			}
		}
	}
	// An image that IS a schedule should be found at offset 0.
	key := make([]byte, v.KeyBytes())
	rng.Read(key)
	img := aes.ExpandKeyBytes(key)
	finds := mustScan(t, img, v, 0, 4)
	if len(finds) != 1 || finds[0].Offset != 0 {
		t.Fatalf("exact-schedule image: %+v", finds)
	}
}

// TestScanParallelRace hammers the worker pool: many concurrent Scan calls
// over a shared image, each with multiple workers. Run under -race by the
// Makefile's race gate.
func TestScanParallelRace(t *testing.T) {
	img := make([]byte, 1<<19)
	if err := workload.Fill(img, 24, workload.LoadedSystem); err != nil {
		t.Fatal(err)
	}
	key := make([]byte, 32)
	rand.New(rand.NewSource(25)).Read(key)
	copy(img[300000:], aes.ExpandKeyBytes(key))
	want := mustScan(t, img, aes.AES256, 0, 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got, err := Scan(context.Background(), img, aes.AES256, 0, workers, nil)
				if err != nil || !sameFindings(got, want) {
					t.Errorf("workers=%d rep=%d: findings diverged (err %v)", workers, rep, err)
				}
			}
		}(i%4 + 1)
	}
	wg.Wait()
}
