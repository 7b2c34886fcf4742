package obs

import (
	"runtime"
	"testing"
)

// sink defeats dead-call elimination in the benchmarks below.
var sink Span

// TestNopZeroAlloc is the contract the bench-guard target enforces: the
// Nop fast path must not allocate, so hot loops (per-chunk scans, verify
// loops) can call tracing hooks unconditionally.
func TestNopZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		sp := Nop.StartSpan("hunt")
		sp.SetAttr("k", "v")
		child := sp.Child("hunt.worker")
		child.End()
		sp.End()
		Nop.Count("pairs", 1)
		Nop.Progress("hunt", 1, 2)
		Nop.Observe("chunk_ns", 42)
	})
	if allocs != 0 {
		t.Fatalf("Nop path allocates %v per run, want 0", allocs)
	}
}

// BenchmarkNopOverhead measures the full set of tracing hooks on the Nop
// tracer — the price every instrumented hot loop pays when tracing is
// off. `make bench-guard` runs it with -benchmem and fails on any
// allocation.
//
// bench-guard times a single iteration, so runtime work on a second P
// inside it counts as the benchmark's allocations: the background
// scavenger, woken by the testing package's pre-run GC, re-arms its timer
// with a 16-byte heap entry. Both guarded benchmarks therefore time on
// one P and stop the timer before the deferred restore.
func BenchmarkNopOverhead(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := Nop.StartSpan("hunt")
		child := sp.Child("hunt.worker")
		child.End()
		sp.End()
		Nop.Count("pairs", 1)
		Nop.Progress("hunt", int64(i), int64(b.N))
		Nop.Observe("chunk_ns", int64(i))
		sink = sp
	}
	b.StopTimer()
}

// BenchmarkCollectorObserve prices the live histogram path hunt workers
// hit per chunk: a read-locked map lookup plus two atomic adds.
func BenchmarkCollectorObserve(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := NewCollector()
	c.Observe("chunk_ns", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Observe("chunk_ns", int64(i))
	}
	b.StopTimer()
}
