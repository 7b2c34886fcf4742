package core

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"coldboot/internal/format"
	"coldboot/internal/obs"
)

// Campaign orchestration. The paper (§III-C, Attack Performance): "since
// the task is fully parallelizable, we can analyze gigabytes of data in a
// matter of hours using multiple machines. For example, using a machine
// with an eight-core Intel Xeon D1541 CPU, we are able to fully search an
// 8 GB DDR4 DRAM image in just over 21 hours."
//
// A Campaign shards a large dump into worker-sized segments, mines keys
// once globally (mining is cheap and the key pool spans the whole image),
// and fans the expensive AES-schedule scan out across shards — which may
// run on separate goroutines here, or be dispatched to separate machines by
// the caller via the Shard/MergeShardResults primitives. The dump itself is
// read through a BlockSource one mining window / one shard at a time, so an
// on-disk multi-GB capture (dumpfile's streaming reader) is analyzed
// without holding the image. Progress reporting and context cancellation —
// per scan chunk WITHIN a shard, not just between shards — make multi-hour
// campaigns operable. The campaign is the only attack pipeline: Attack is
// a one-shard campaign.

// Shard is one independently scannable piece of a dump.
type Shard struct {
	Index int
	// FirstBlock and Blocks delimit the shard within the full dump.
	FirstBlock int
	Blocks     int
}

// ShardResult carries one shard's findings back for merging. Keys arrive
// untagged and unfiltered: LUKS2 pair tagging and format filtering run
// once over the merged set (Finalize), because a schedule pair can
// straddle a shard boundary. Volume offsets are already rebased
// to full-dump coordinates.
type ShardResult struct {
	Shard   Shard
	Keys    []FoundKey
	Volumes []format.Volume
	Pairs   int64
}

// CampaignConfig tunes a sharded attack.
type CampaignConfig struct {
	// Attack is the attack configuration (Workers applies within each
	// shard's hunt; shards themselves run Parallel at a time). Attack.Tracer
	// observes the campaign: the global mining pass runs under the
	// "campaign.mine" stage, each shard under "shard" → "hunt" →
	// "hunt.worker", and the final dedup under "campaign.merge". The
	// "campaign" progress counts the dump's blocks whose shard finished.
	Attack Config
	// ShardBlocks is the shard size in 64-byte blocks (default 65536,
	// i.e. 4 MiB shards).
	ShardBlocks int
	// Parallel is how many shards run concurrently. Zero (the zero value)
	// means one in-flight shard per CPU; callers never need to set it. When
	// Attack.Workers is also zero, the per-shard worker count is divided by
	// Parallel so the two levels together target one goroutine per CPU
	// instead of multiplying into NumCPU².
	Parallel int
	// TraceID, when non-empty, names the campaign's distributed trace
	// instead of letting the plan mint one — callers that already minted
	// an ID (the analysis service, which surfaces it on the job record)
	// pass it down so the wire plan, shard spans, and job status all
	// agree on one identifier.
	TraceID string
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if c.ShardBlocks == 0 {
		c.ShardBlocks = 65536
	}
	if c.Parallel <= 0 {
		c.Parallel = runtime.NumCPU()
	}
	if c.Attack.Workers <= 0 {
		// Split the CPU budget between shard-level and block-level
		// parallelism rather than letting the defaults multiply.
		c.Attack.Workers = runtime.NumCPU() / c.Parallel
		if c.Attack.Workers < 1 {
			c.Attack.Workers = 1
		}
	}
	return c
}

// Shards splits a dump of n blocks into segments. Shards overlap by the
// schedule size so a key table straddling a boundary is fully visible to
// at least one shard.
func Shards(totalBlocks, shardBlocks, overlapBlocks int) []Shard {
	if shardBlocks <= 0 {
		shardBlocks = totalBlocks
	}
	var out []Shard
	for first := 0; first < totalBlocks; first += shardBlocks {
		n := shardBlocks + overlapBlocks
		if first+n > totalBlocks {
			n = totalBlocks - first
		}
		out = append(out, Shard{Index: len(out), FirstBlock: first, Blocks: n})
		if first+n >= totalBlocks && first+shardBlocks >= totalBlocks {
			break
		}
	}
	return out
}

// RunCampaignSource executes a sharded attack over a BlockSource: the
// image is read one mining window / one shard at a time and never held
// fully resident, so dumps larger than memory stream from disk (pair with
// dumpfile.Open). Cancellation stops the campaign mid-shard — each shard's
// scan polls the context every chunk — and the merged results found so
// far are returned together with ctx.Err().
//
// It is the in-process composition of the plan primitives — Plan, a
// concurrent local shard loop over ScanShardBytes, Finalize — that
// internal/fleet distributes across worker processes. Both paths produce
// byte-identical results because they share every phase but the shard
// transport.
func RunCampaignSource(ctx context.Context, src BlockSource, cfg CampaignConfig) (*Result, error) {
	plan, err := PlanCampaignSource(ctx, src, cfg)
	if plan == nil {
		return nil, err
	}
	defer plan.Close()
	if err != nil {
		return plan.Result(), err
	}
	cfg = plan.cfg

	// Shard buffers are pooled per in-flight worker; memory-resident
	// sources lend subslices instead (no copy at all).
	var bufs chan []byte
	if _, resident := src.(sliceSource); !resident {
		bufs = make(chan []byte, cfg.Parallel)
		for i := 0; i < cfg.Parallel; i++ {
			bufs <- make([]byte, (cfg.ShardBlocks+plan.Overlap)*BlockBytes)
		}
	}

	var (
		mu        sync.Mutex
		pairs     int64
		collected []FoundKey
		colVols   []format.Volume
		campErr   error
	)
	setErr := func(err error) {
		if err != nil && campErr == nil {
			campErr = err
		}
	}
	sem := make(chan struct{}, cfg.Parallel)
	var wg sync.WaitGroup
shardLoop:
	for _, sh := range plan.Shards {
		select {
		case <-ctx.Done():
			mu.Lock()
			setErr(ctx.Err())
			mu.Unlock()
			break shardLoop
		default:
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(sh Shard) {
			defer wg.Done()
			defer func() { <-sem }()
			shSpan := plan.ShardSpan(sh)
			defer shSpan.End()
			sub, release, err := shardBytes(src, sh, bufs)
			if err != nil {
				mu.Lock()
				setErr(err)
				mu.Unlock()
				return
			}
			sr, serr := plan.ScanShardBytes(ctx, sub, sh, shSpan)
			release()
			shSpan.SetAttr("keys", strconv.Itoa(len(sr.Keys)))
			mu.Lock()
			setErr(serr)
			collected = append(collected, sr.Keys...)
			colVols = append(colVols, sr.Volumes...)
			pairs += sr.Pairs
			mu.Unlock()
			plan.ShardDone(sh.Index)
		}(sh)
	}
	wg.Wait()
	res := plan.Finalize(collected, colVols, pairs)
	return res, campErr
}

// mergeVolumes deduplicates volume sightings across shards (overlap
// regions sight the same header twice) and orders them by offset.
func mergeVolumes(vols []format.Volume) []format.Volume {
	if len(vols) == 0 {
		return nil
	}
	byOff := make(map[int]format.Volume, len(vols))
	for _, v := range vols {
		byOff[v.Offset] = v
	}
	return sortedVolumes(byOff)
}

// startCampaignSpan opens the campaign's root span, nesting it under the
// caller's span (coldbootd's per-job span) when one is provided.
func startCampaignSpan(tracer obs.Tracer, parent obs.Span, totalBlocks int) obs.Span {
	attrs := []obs.Attr{obs.A("blocks", strconv.Itoa(totalBlocks))}
	if parent != nil {
		return parent.Child("campaign", attrs...)
	}
	return tracer.StartSpan("campaign", attrs...)
}

// shardBytes materializes one shard's bytes: a borrowed subslice for
// memory-resident sources, or a pooled buffer filled by ReadBlocks for
// streaming ones. release returns a pooled buffer; it must be called once
// the shard scan is done with the bytes.
func shardBytes(src BlockSource, sh Shard, bufs chan []byte) (sub []byte, release func(), err error) {
	if s, ok := src.(sliceSource); ok {
		return s.slice(sh.FirstBlock, sh.Blocks), func() {}, nil
	}
	buf := <-bufs
	sub = buf[:sh.Blocks*BlockBytes]
	if err := src.ReadBlocks(sh.FirstBlock, sub); err != nil {
		bufs <- buf
		return nil, nil, fmt.Errorf("core: reading shard %d: %w", sh.Index, err)
	}
	return sub, func() { bufs <- buf }, nil
}

// scanShard hunts one shard's bytes with the plan's directory, skip set
// and formats, recording into tracer under span. Results come back
// rebased to full-dump coordinates. A cancelled context surfaces the
// partial findings together with ctx.Err().
func (p *CampaignPlan) scanShard(ctx context.Context, sub []byte, sh Shard, tracer obs.Tracer, span obs.Span) (ShardResult, error) {
	out := ShardResult{Shard: sh}
	if sh.FirstBlock < 0 || sh.Blocks < 0 || sh.FirstBlock+sh.Blocks > p.TotalBlocks || len(sub) != sh.Blocks*BlockBytes {
		return out, fmt.Errorf("core: shard %+v with %d bytes does not fit a %d-block plan", sh, len(sub), p.TotalBlocks)
	}
	first := sh.FirstBlock
	run := &huntRun{
		dump:      sub,
		first:     first,
		cfg:       p.attackCfg,
		directory: func(b int) [][]byte { return p.directory(b + first) },
		skip:      p.skip,
		tracer:    tracer,
		memo:      make(map[string]*verifyOutcome),
		rf:        p.rf,
		found:     make(map[string]*FoundKey),
		foundF:    make(map[string]*FoundKey),
		volumes:   make(map[int]format.Volume),
	}
	if g := p.attackCfg.GroundDump; g != nil {
		run.ground = g[first*BlockBytes : first*BlockBytes+len(sub)]
	}
	defer run.wipe()
	huntSpan := span.Child("hunt")
	err := run.hunt(ctx, huntSpan)
	huntSpan.End()
	keys, vols := run.assemble()
	for _, k := range keys {
		k.TableStart += first * BlockBytes
		out.Keys = append(out.Keys, k)
	}
	for _, v := range vols {
		v.Offset += first * BlockBytes
		out.Volumes = append(out.Volumes, v)
	}
	out.Pairs = run.pairs
	return out, err
}

// MergeShardResults deduplicates findings across shards (overlap regions
// produce the same key twice) using the same best-score-per-region,
// per-format rule as each shard's own alias suppression.
func MergeShardResults(keys []FoundKey, schedBytes int) []FoundKey {
	sortFoundKeys(keys)
	return suppressAliases(keys, schedBytes)
}
