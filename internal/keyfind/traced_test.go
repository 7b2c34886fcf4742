package keyfind

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"

	"coldboot/internal/aes"
	"coldboot/internal/obs"
)

// TestScanTracedParity checks a traced Scan finds exactly what an untraced
// one finds and fills the keyfind telemetry: per-chunk latency samples and
// progress reaching the full offset count.
func TestScanTracedParity(t *testing.T) {
	for _, workers := range []int{1, 4} {
		img, key := imageWithKey(t, 1<<20, 11, aes.AES256, 98765)
		col := obs.NewCollector()
		got, err := Scan(context.Background(), img, aes.AES256, 0, workers, col)
		if err != nil {
			t.Fatal(err)
		}
		want := mustScan(t, img, aes.AES256, 0, workers)
		if len(got) != len(want) || len(got) != 1 || !bytes.Equal(got[0].Master, key) {
			t.Fatalf("workers=%d: traced scan diverged: got %+v want %+v", workers, got, want)
		}

		rep := col.Report()
		nOffsets := int64(len(img) - aes.AES256.ScheduleBytes() + 1)
		if rep.Counters["progress.keyfind"] != nOffsets {
			t.Errorf("workers=%d: progress.keyfind = %d, want %d",
				workers, rep.Counters["progress.keyfind"], nOffsets)
		}
		var chunks *obs.Histogram
		if chunks = col.Histogram("keyfind.chunk_ns"); chunks == nil {
			t.Fatalf("workers=%d: keyfind.chunk_ns histogram missing", workers)
		}
		if s := chunks.Snapshot("keyfind.chunk_ns"); s.Count == 0 || s.Sum <= 0 {
			t.Errorf("workers=%d: chunk histogram empty: %+v", workers, s)
		}
	}
}

func TestScanTracedNilTracer(t *testing.T) {
	img, key := imageWithKey(t, 1<<19, 12, aes.AES256, 4096)
	got, err := Scan(context.Background(), img, aes.AES256, 0, 0, nil)
	if err != nil || len(got) != 1 || !bytes.Equal(got[0].Master, key) {
		t.Fatalf("nil tracer scan failed: %v %+v", err, got)
	}
}

func TestScanContextCancellation(t *testing.T) {
	img, _ := imageWithKey(t, 1<<20, 23, aes.AES256, 4096)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		got, err := Scan(ctx, img, aes.AES256, 0, workers, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got != nil {
			t.Errorf("workers=%d: cancelled scan returned findings: %v", workers, got)
		}
	}
}

// BenchmarkScanChunkNop prices one instrumented scan chunk on the Nop
// tracer — the hot path `make bench-guard` holds to zero allocations.
func BenchmarkScanChunkNop(b *testing.B) {
	// A zero image never passes the rolling-word quick filter, so the loop
	// is pure filter + instrumentation — the path that must stay
	// allocation-free (real hits pay for their own Finding copies).
	img := make([]byte, 256<<10)
	b.ReportAllocs()
	b.SetBytes(int64(len(img)))
	// `make bench-guard` runs one timed iteration, so runtime bookkeeping
	// that lands inside it shows up as allocs/op: the 16-byte timer entry
	// the background scavenger adds after the 256 KiB set-up allocation,
	// and the ~5 KiB of a fresh OS thread the scheduler starts when
	// ResetTimer's stop-the-world restarts an idle P. Settle the heap first
	// and time on a single P so the count measures the scan alone.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := obs.Now()
		findings := scanRange(img, aes.AES256, DefaultTolerance, 0, len(img))
		obs.Nop.Observe("keyfind.chunk_ns", obs.Since(start))
		obs.Nop.Progress("keyfind", int64(len(img)), int64(len(img)))
		if len(findings) != 0 {
			b.Fatal("unexpected findings in noise image")
		}
	}
	b.StopTimer() // before the deferred GOMAXPROCS restore restarts the world
}
