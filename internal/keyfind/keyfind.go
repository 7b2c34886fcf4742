// Package keyfind implements the classic Halderman et al. ("Lest We
// Remember") expanded-AES-key scan over UNSCRAMBLED memory images: slide a
// window across the dump, treat each position as a candidate cipher key,
// expand it, and compare the expansion against the bytes that follow. This
// is the prior-art baseline the paper's Section III-C modifies — it
// requires the memory image to be fully descrambled ahead of time, which is
// exactly what DDR4 scrambling broke and the internal/core attack restores.
//
// The scan is embarrassingly parallel (each candidate offset is judged
// independently), so Scan shards the image across a worker pool sized to
// the machine by default and merges the per-chunk findings back in offset
// order — the output is byte-identical to a serial left-to-right scan.
package keyfind

import (
	"context"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"coldboot/internal/aes"
	"coldboot/internal/obs"
)

// Finding is one located key schedule.
type Finding struct {
	Offset   int    // byte offset of the schedule (and master key) in the image
	Master   []byte // the recovered master key
	Distance int    // hamming distance between the expected and found schedule tail
}

// DefaultTolerance is the default bit-flip budget over the whole schedule
// tail (the expanded bytes after the master key).
const DefaultTolerance = 16

// minChunkBytes is the smallest per-worker chunk worth dispatching: below
// this the goroutine hand-off costs more than the scan itself.
const minChunkBytes = 64 << 10

// Scan searches image for in-memory AES key schedules of the given variant,
// fanning the offset range out over workers goroutines (0 or negative
// selects runtime.NumCPU()). Every byte offset is tried, as in the original
// tool: real schedules are at least word aligned, but memory images can
// have arbitrary framing.
//
// The image is cut into contiguous offset chunks, each chunk is scanned
// independently, and the per-chunk findings — already in ascending offset
// order — are concatenated in chunk order, so the output is deterministic
// and byte-identical to a serial left-to-right scan regardless of worker
// count or scheduling. Each worker polls ctx between chunks (chunks are at
// most a few hundred microseconds of scanning); a cancelled scan returns
// nil findings together with ctx.Err(). Each completed chunk records its
// scan latency into the "keyfind.chunk_ns" histogram and advances the
// "keyfind" progress (in candidate offsets) on tr; a nil tr means no
// tracing.
func Scan(ctx context.Context, image []byte, v aes.Variant, tolerance, workers int, tr obs.Tracer) ([]Finding, error) {
	tr = obs.OrNop(tr)
	if tolerance <= 0 {
		tolerance = DefaultTolerance
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	nOffsets := len(image) - v.ScheduleBytes() + 1
	if nOffsets <= 0 {
		return nil, ctx.Err()
	}
	// Aim for a few chunks per worker so a dense region doesn't straggle,
	// but never chunks so small that dispatch dominates.
	chunkLen := nOffsets / (workers * 4)
	if chunkLen < minChunkBytes {
		chunkLen = minChunkBytes
	}
	nChunks := (nOffsets + chunkLen - 1) / chunkLen
	if nChunks <= 1 || workers == 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := obs.Now()
		out := scanRange(image, v, tolerance, 0, len(image))
		tr.Observe("keyfind.chunk_ns", obs.Since(start))
		tr.Progress("keyfind", int64(nOffsets), int64(nOffsets))
		return out, nil
	}
	if workers > nChunks {
		workers = nChunks
	}

	results := make([][]Finding, nChunks)
	jobs := make(chan int)
	var doneOffsets atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				if ctx.Err() != nil {
					continue // drain the queue without scanning
				}
				lo := c * chunkLen
				hi := lo + chunkLen
				if hi > nOffsets {
					hi = nOffsets
				}
				start := obs.Now()
				results[c] = scanRange(image, v, tolerance, lo, hi)
				tr.Observe("keyfind.chunk_ns", obs.Since(start))
				tr.Progress("keyfind", doneOffsets.Add(int64(hi-lo)), int64(nOffsets))
			}
		}()
	}
	for c := 0; c < nChunks; c++ {
		jobs <- c
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var out []Finding
	for _, r := range results {
		out = append(out, r...)
	}
	return out, nil
}

// scanRange scans candidate offsets in [lo, hi) ∩ [0, len(image)-schedBytes].
// Offsets are ownership boundaries only: the schedule window read at each
// offset may extend past hi, so chunked scans see exactly the findings a
// full serial scan does, each exactly once.
//
// The quick filter maintains three rolling big-endian 32-bit words (the
// first key word, the last key word, and the stored word after the key)
// that each advance by one byte per offset — turning twelve byte loads per
// offset into three.
func scanRange(image []byte, v aes.Variant, tolerance, lo, hi int) []Finding {
	keyBytes := v.KeyBytes()
	schedBytes := v.ScheduleBytes()
	if max := len(image) - schedBytes + 1; hi > max {
		hi = max
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return nil
	}
	var out []Finding
	// Full-check expansion buffer, hoisted so candidates that pass the
	// quick filter (~1 per 2^20 offsets of random data, but every offset of
	// adversarial data) expand into scratch instead of allocating.
	var schedBuf [aes.MaxScheduleBytes]byte
	w0 := beWord(image[lo:])              // first 4 key bytes
	prev := beWord(image[lo+keyBytes-4:]) // last 4 key bytes
	stored := beWord(image[lo+keyBytes:]) // first 4 schedule-tail bytes
	for off := lo; off < hi; off++ {
		// Quick filter: derive schedule word nk from the candidate key and
		// compare against the stored bytes, allowing a few flipped bits.
		first := w0 ^ subWordRot(prev) ^ 0x01000000 // rcon(1)
		if bits.OnesCount32(first^stored) <= 4 {
			// Full check: expand and compare the whole tail.
			sched := aes.ExpandKeyBytesInto(schedBuf[:0], image[off:off+keyBytes])
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
					Offset: off,
					//lint:ignore allocloop rare path (one hit per real schedule); Finding.Master must not alias the caller's image
					Master:   append([]byte{}, image[off:off+keyBytes]...),
					Distance: d,
				})
			}
		}
		if off+1 < hi {
			// Slide each rolling word one byte to the right. The loads stay
			// in bounds because off+1+schedBytes <= len(image) and
			// schedBytes > keyBytes+4 for every AES variant.
			w0 = w0<<8 | uint32(image[off+4])
			prev = prev<<8 | uint32(image[off+keyBytes])
			stored = stored<<8 | uint32(image[off+keyBytes+4])
		}
	}
	return out
}

func beWord(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func subWordRot(w uint32) uint32 {
	r := w<<8 | w>>24
	return uint32(aes.SubByte(byte(r>>24)))<<24 |
		uint32(aes.SubByte(byte(r>>16)))<<16 |
		uint32(aes.SubByte(byte(r>>8)))<<8 |
		uint32(aes.SubByte(byte(r)))
}
