package obs

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of power-of-two buckets in a Histogram: bucket
// i counts samples whose value fits in i bits, i.e. the half-open range
// [2^(i-1), 2^i). Bucket 0 holds exactly the value 0; bucket 63 tops out
// the int64 range.
const histBuckets = 64

// Histogram is a lock-free log-bucketed latency histogram: recording a
// sample is one bits.Len64 plus two atomic adds, cheap enough for
// per-chunk scan loops. Values are clamped at zero; by convention they are
// nanoseconds. The zero value is ready to use.
type Histogram struct {
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
}

// HistogramBucket is one cumulative bucket in a snapshot: Count samples
// were <= UpperBound.
type HistogramBucket struct {
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time view of a histogram with estimated
// percentiles. Quantiles are interpolated within the winning power-of-two
// bucket, so they carry up to 2x relative error — fine for spotting tail
// latencies, not for billing.
type HistogramSnapshot struct {
	Name    string            `json:"name"`
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	P50     int64             `json:"p50"`
	P90     int64             `json:"p90"`
	P99     int64             `json:"p99"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// bucketBounds returns the half-open value range [lo, hi] covered by
// bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		return lo, int64(^uint64(0) >> 1)
	}
	return lo, int64(1)<<i - 1
}

// Snapshot captures the histogram's current counts, cumulative buckets
// (trimmed to the occupied range), and p50/p90/p99 estimates. Concurrent
// Observe calls may land between bucket reads; the snapshot is internally
// consistent with whatever subset it saw. A nil histogram (what
// Collector.Histogram returns before anything was observed) snapshots as
// empty.
func (h *Histogram) Snapshot(name string) HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{Name: name}
	}
	var counts [histBuckets]int64
	var total int64
	first, last := -1, -1
	for i := range counts {
		n := h.buckets[i].Load()
		counts[i] = n
		total += n
		if n > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	s := HistogramSnapshot{Name: name, Count: total, Sum: h.sum.Load()}
	if total == 0 {
		return s
	}
	var cum int64
	for i := first; i <= last; i++ {
		cum += counts[i]
		_, hi := bucketBounds(i)
		s.Buckets = append(s.Buckets, HistogramBucket{UpperBound: hi, Count: cum})
	}
	s.P50 = quantile(&counts, total, 0.50)
	s.P90 = quantile(&counts, total, 0.90)
	s.P99 = quantile(&counts, total, 0.99)
	return s
}

// quantile estimates the q-th quantile by walking the buckets to the
// target rank and interpolating linearly inside the winning bucket.
func quantile(counts *[histBuckets]int64, total int64, q float64) int64 {
	rank := int64(q*float64(total-1)) + 1
	if rank > total {
		rank = total
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		if counts[i] == 0 {
			continue
		}
		if seen+counts[i] < rank {
			seen += counts[i]
			continue
		}
		lo, hi := bucketBounds(i)
		if counts[i] == 1 || hi == lo {
			return hi
		}
		frac := float64(rank-seen-1) / float64(counts[i]-1)
		return lo + int64(frac*float64(hi-lo))
	}
	return 0
}
