package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"

	"coldboot/internal/aes"
	"coldboot/internal/format"
	"coldboot/internal/obs"
)

// Campaign planning: the sharded attack decomposed into three reusable
// phases so the same pipeline can run in-process (RunCampaignSource) or
// spread across a worker fleet (internal/fleet):
//
//	Plan      mine the scrambler-key pool once globally, infer the
//	          stride, build the per-block key directory, cut shards;
//	Scan      hunt one shard's bytes with the plan's products — anywhere:
//	          the plan's Wire projection carries everything a remote
//	          worker needs to reproduce a shard scan byte-for-byte;
//	Finalize  merge shard results, apply LUKS2 pair tagging and format
//	          filtering once over the cross-shard view.
//
// Splitting here (and not at some coarser "send the job elsewhere" level)
// is what makes fleet results byte-identical to a local campaign: every
// shard scan — local goroutine or remote lease — goes through the same
// ScanShardBytes, and every merge goes through the same Finalize.

// CampaignPlan is a planned sharded attack: the global mining products
// plus the resolved configuration every shard scan shares. Create with
// PlanCampaignSource (coordinator/local side) or PlanFromWire (remote
// worker side), and Close when done.
type CampaignPlan struct {
	// Mine is the global mining pass output (sighting positions in
	// full-dump block indices).
	Mine *MineResult
	// Stride is the inferred key-reuse period in blocks (0 = none).
	Stride int
	// Coverage is the fraction of address classes with a mined key (only
	// meaningful when the stride directory is in use).
	Coverage float64
	// TotalBlocks is the full dump's block count.
	TotalBlocks int
	// Overlap is the shard overlap in blocks (one schedule span), so a
	// key table straddling a boundary is fully visible to one shard.
	Overlap int
	// Shards is the shard cut of the dump.
	Shards []Shard
	// Trace is the campaign's distributed trace context: minted when the
	// campaign is planned, carried to workers inside the wire plan, and
	// stamped on the span trees they ship back. ParentSpan is meaningful
	// only in the minting process's collector.
	Trace obs.TraceContext

	cfg       CampaignConfig
	attackCfg Config
	rf        resolvedFormats
	directory KeyDirectory
	// skip is the zero-block bitset over the full dump (zeroBlocks).
	skip   []uint64
	tracer obs.Tracer
	root   obs.Span
	res    *Result
	closed bool

	mu         sync.Mutex
	doneBlocks int // guarded by mu
}

// PlanCampaignSource runs the campaign's global phase over src: one
// mining pass, stride inference, directory construction, and the shard
// cut. On a mining error (including cancellation) the returned plan
// carries the partial Result and the error; the caller decides whether
// to scan anyway. Close the plan when finished with it. A ground dump
// (Attack.GroundDump) is accepted only over a memory-resident source of
// the same length: each shard repairs against its own slice of it.
func PlanCampaignSource(ctx context.Context, src BlockSource, cfg CampaignConfig) (*CampaignPlan, error) {
	if src == nil {
		return nil, fmt.Errorf("core: nil dump source")
	}
	totalBlocks := src.Blocks()
	if g := cfg.Attack.GroundDump; g != nil {
		if _, resident := src.(sliceSource); !resident {
			return nil, fmt.Errorf("core: a ground dump needs a memory-resident dump, not a streaming source")
		}
		if len(g) != totalBlocks*BlockBytes {
			return nil, fmt.Errorf("core: ground dump length %d != dump length %d", len(g), totalBlocks*BlockBytes)
		}
	}
	cfg = cfg.withDefaults()
	attackCfg := cfg.Attack.withDefaults()
	rf, err := resolveFormats(attackCfg.Formats)
	if err != nil {
		return nil, err
	}
	tracer := obs.OrNop(attackCfg.Tracer)

	p := &CampaignPlan{
		TotalBlocks: totalBlocks,
		cfg:         cfg,
		attackCfg:   attackCfg,
		rf:          rf,
		tracer:      tracer,
	}
	p.root = startCampaignSpan(tracer, attackCfg.Span, totalBlocks)
	p.Trace = obs.TraceContext{TraceID: cfg.TraceID}
	if p.Trace.TraceID == "" {
		p.Trace.TraceID = obs.NewTraceID()
	}
	if col := obs.FindCollector(tracer); col != nil {
		p.Trace.ParentSpan = col.SpanID(p.root)
	}
	p.root.SetAttr("trace", p.Trace.TraceID)
	// Publish the denominator before mining, so a poller sees 0 of N
	// blocks while the global pass runs.
	tracer.Progress("campaign", 0, int64(totalBlocks))

	// Global mining pass: keys repeat across the whole image, so one pass
	// yields the best pool and the true stride. Its counters are the
	// campaign's, emitted once here — shard scans never re-emit them.
	mineTimer := p.root.Child("campaign.mine")
	mine, err := MineKeysSource(ctx, src, MineOptions{})
	tracer.Count("mine.blocks_scanned", int64(mine.BlocksScanned))
	tracer.Count("mine.blocks_passed", int64(mine.BlocksPassed))
	tracer.Count("mine.keys", int64(len(mine.Keys)))
	mineTimer.End()
	p.Mine = mine
	p.res = &Result{Mine: mine, BlocksScanned: totalBlocks}
	if err != nil {
		return p, err
	}
	if attackCfg.KeysForBlock == nil {
		p.Stride = mine.InferStride()
	}
	p.res.Stride = p.Stride
	p.directory, p.Coverage = chooseDirectory(mine, p.Stride, attackCfg)
	p.res.Coverage = p.Coverage
	p.skip = zeroBlocks(mine, totalBlocks)

	p.Overlap = shardOverlap(attackCfg.Variant)
	p.Shards = Shards(totalBlocks, cfg.ShardBlocks, p.Overlap)
	p.root.SetAttr("shards", strconv.Itoa(len(p.Shards)))
	return p, nil
}

// shardOverlap is the shard overlap in blocks for variant v: one schedule
// span, so a key table straddling a shard boundary is fully visible to
// one shard.
func shardOverlap(v aes.Variant) int {
	return v.ScheduleBytes()/BlockBytes + 1
}

// Result returns the plan's accumulating result document (mining stats
// immediately; keys and volumes after Finalize). It is valid — possibly
// partial — even when planning or scanning errored.
func (p *CampaignPlan) Result() *Result { return p.res }

// Root returns the campaign's root span (nil before planning). The fleet
// coordinator hangs lease spans off it so every shard — local or remote —
// lives in one trace tree.
func (p *CampaignPlan) Root() obs.Span { return p.root }

// ShardSpan opens the tracing span for one shard's scan, parented under
// the campaign root when the plan has one (coordinator side) or rooted at
// the tracer otherwise (remote worker side). End it when the scan
// completes.
func (p *CampaignPlan) ShardSpan(sh Shard) obs.Span {
	attrs := p.shardAttrs(sh)
	if p.root != nil {
		return p.root.Child("shard", attrs...)
	}
	return p.tracer.StartSpan("shard", attrs...)
}

// shardAttrs builds the standard attribute set for one shard's span,
// including the campaign trace ID when the plan carries one.
func (p *CampaignPlan) shardAttrs(sh Shard) []obs.Attr {
	attrs := []obs.Attr{
		obs.A("shard", strconv.Itoa(sh.Index)),
		obs.A("blocks", strconv.Itoa(sh.FirstBlock)+"-"+strconv.Itoa(sh.FirstBlock+sh.Blocks)),
		obs.A("offset", "0x"+strconv.FormatInt(int64(sh.FirstBlock)*BlockBytes, 16)+"-0x"+strconv.FormatInt(int64(sh.FirstBlock+sh.Blocks)*BlockBytes, 16)),
	}
	if p.Trace.Valid() {
		attrs = append(attrs, obs.A("trace", p.Trace.TraceID))
	}
	return attrs
}

// ScanShardBytes hunts one shard's raw bytes (sub must hold exactly
// sh.Blocks blocks starting at sh.FirstBlock of the dump) under span, or
// under a fresh shard span when span is nil. Results come back rebased to
// full-dump coordinates, untagged and unfiltered — Finalize owns tagging —
// so a local goroutine and a remote worker produce interchangeable
// ShardResults.
func (p *CampaignPlan) ScanShardBytes(ctx context.Context, sub []byte, sh Shard, span obs.Span) (ShardResult, error) {
	if span == nil {
		span = p.ShardSpan(sh)
		defer span.End()
	}
	return p.scanShard(ctx, sub, sh, p.tracer, span)
}

// ScanShardBytesTraced is ScanShardBytes with the tracer overridden for
// this one scan: the shard span and every hook under it (hunt spans, chunk
// histograms, counters) record into tracer instead of the plan's. The
// fleet worker gives each lease its own Collector this way, so one shard's
// telemetry snapshots cleanly for shipping without tearing it out of a
// shared process-wide trace.
func (p *CampaignPlan) ScanShardBytesTraced(ctx context.Context, sub []byte, sh Shard, tracer obs.Tracer) (ShardResult, error) {
	tracer = obs.OrNop(tracer)
	span := tracer.StartSpan("shard", p.shardAttrs(sh)...)
	defer span.End()
	return p.scanShard(ctx, sub, sh, tracer, span)
}

// ShardDone records that the shard with the given index finished: the
// blocks it owns (up to the next shard's first block; the overlap tail is
// the next shard's) join the campaign's done count, and the "campaign"
// progress advances. The local shard loop and the fleet coordinator's
// accepted completions both call it, once per shard, so progress is
// strictly increasing and ends at TotalBlocks.
func (p *CampaignPlan) ShardDone(index int) {
	owned := p.TotalBlocks - p.Shards[index].FirstBlock
	if index+1 < len(p.Shards) {
		owned = p.Shards[index+1].FirstBlock - p.Shards[index].FirstBlock
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.doneBlocks += owned
	// Emitted under the lock so concurrent shards report in increasing
	// order; a tracer must not call back into the plan.
	p.tracer.Progress("campaign", int64(p.doneBlocks), int64(p.TotalBlocks))
}

// CheckShardResult reports whether res could come from a scan of one of
// the plan's shards: the shard is in the plan's cut, Pairs is not
// negative, every key and volume starts inside the shard, every key's
// master has the length its format gives it in this campaign, and there
// are no more keys or volumes than the shard has bytes. A fleet
// coordinator checks each worker's result with it before merging one.
func (p *CampaignPlan) CheckShardResult(res ShardResult) error {
	sh := res.Shard
	if sh.Index < 0 || sh.Index >= len(p.Shards) || p.Shards[sh.Index] != sh {
		return fmt.Errorf("core: shard %+v is not in the campaign's cut", sh)
	}
	lo, hi := sh.FirstBlock*BlockBytes, (sh.FirstBlock+sh.Blocks)*BlockBytes
	if res.Pairs < 0 || len(res.Keys) > hi-lo || len(res.Volumes) > hi-lo {
		return fmt.Errorf("core: shard %d result has %d pairs, %d keys and %d volumes", sh.Index, res.Pairs, len(res.Keys), len(res.Volumes))
	}
	for _, k := range res.Keys {
		if n := p.keyBytes(k); k.TableStart < lo || k.TableStart >= hi || n == 0 || len(k.Master) != n {
			return fmt.Errorf("core: shard %d key of format %q at %d has a %d-byte master", sh.Index, k.Format, k.TableStart, len(k.Master))
		}
	}
	for _, v := range res.Volumes {
		if v.Offset < lo || v.Offset >= hi {
			return fmt.Errorf("core: shard %d volume at %d lies outside it", sh.Index, v.Offset)
		}
	}
	return nil
}

// keyBytes is the master length a shard scan gives a key of k's format and
// variant: the campaign variant's key size for an AES schedule, the
// scanner's key size for a probed format, and 0 for a key the campaign
// cannot produce.
func (p *CampaignPlan) keyBytes(k FoundKey) int {
	if k.Format == FormatAESXTS {
		if p.rf.aes && k.Variant == p.attackCfg.Variant {
			return k.Variant.KeyBytes()
		}
		return 0
	}
	for _, s := range p.rf.probers {
		if s.Name() == k.Format && k.Variant == 0 {
			return s.KeyBytes()
		}
	}
	return 0
}

// Finalize merges the collected shard results into the plan's Result:
// cross-shard dedup, LUKS2 schedule-pair tagging, format filtering, and
// the assemble.keys and per-format counters — the exact post-merge path
// of a single-process campaign, so N workers' shards assemble into the
// same bytes.
func (p *CampaignPlan) Finalize(collected []FoundKey, vols []format.Volume, pairs int64) *Result {
	mergeTimer := p.root.Child("campaign.merge")
	schedBytes := p.attackCfg.Variant.ScheduleBytes()
	p.res.PairsTested = pairs
	p.res.Keys = MergeShardResults(collected, schedBytes)
	p.res.Volumes = mergeVolumes(vols)
	// Shards report untagged/unfiltered keys; the pair tagging and format
	// filter run here, once, over the merged cross-shard view.
	if p.rf.luks2 {
		tagLUKS2(p.res.Keys, p.res.Volumes, schedBytes)
	}
	p.res.Keys = filterFormats(p.res.Keys, p.rf)
	mergeTimer.End()
	p.tracer.Count("assemble.keys", int64(len(p.res.Keys)))
	emitFormatCounts(p.tracer, p.rf, p.res)
	p.root.SetAttr("keys", strconv.Itoa(len(p.res.Keys)))
	return p.res
}

// Close ends the campaign span. Idempotent.
func (p *CampaignPlan) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.root != nil {
		p.root.End()
	}
}

// WirePlan is the shippable projection of a CampaignPlan: what the plan
// decides, which is everything a remote worker needs to reproduce a shard
// scan byte-for-byte. It deliberately excludes host-local state
// (KeysForBlock closures, ground dump, tracer, and the hunt's width: a
// worker scans on its own CPUs); mining already ran on the coordinator.
// It travels as one EncodeWirePlan frame.
//
// The mined Keys ride along raw: they are scrambler keystream blocks
// recovered FROM the attacker-held dump, not recovered secrets — the
// keyflow boundary (secret.Bytes fingerprints) applies to AES masters in
// results at rest, which travel the fleet transport, never the WAL.
type WirePlan struct {
	Variant     aes.Variant
	Formats     []string
	RepairFlips int
	Stride      int
	TotalBlocks int
	Mine        *MineResult
	// Trace propagates the campaign's distributed trace context so worker
	// span trees stamp the same trace ID the coordinator minted.
	Trace obs.TraceContext
}

// Wire projects the plan for shipment to workers.
func (p *CampaignPlan) Wire() *WirePlan {
	return &WirePlan{
		Variant:     p.attackCfg.Variant,
		Formats:     p.attackCfg.Formats,
		RepairFlips: p.attackCfg.RepairFlips,
		Stride:      p.Stride,
		TotalBlocks: p.TotalBlocks,
		Mine:        p.Mine,
		Trace:       p.Trace,
	}
}

// PlanFromWire reconstructs a scan-capable plan on a remote worker: the
// same directory and skip-set rules as PlanCampaignSource, minus the
// mining pass (the coordinator already paid it). Its hunt runs one worker
// per local CPU. The resulting plan can ScanShardBytes; it cannot
// Finalize a campaign it did not plan.
func PlanFromWire(w *WirePlan, tracer obs.Tracer) (*CampaignPlan, error) {
	if w == nil || w.Mine == nil {
		return nil, fmt.Errorf("core: wire plan missing mine pool")
	}
	attackCfg := Config{
		Variant:     w.Variant,
		Formats:     w.Formats,
		RepairFlips: w.RepairFlips,
		Tracer:      tracer,
	}.withDefaults()
	rf, err := resolveFormats(attackCfg.Formats)
	if err != nil {
		return nil, err
	}
	p := &CampaignPlan{
		Mine:        w.Mine,
		Stride:      w.Stride,
		TotalBlocks: w.TotalBlocks,
		Overlap:     shardOverlap(attackCfg.Variant),
		Trace:       w.Trace,
		attackCfg:   attackCfg,
		rf:          rf,
		skip:        zeroBlocks(w.Mine, w.TotalBlocks),
		tracer:      obs.OrNop(tracer),
		res:         &Result{Mine: w.Mine, Stride: w.Stride, BlocksScanned: w.TotalBlocks},
	}
	p.directory, p.Coverage = chooseDirectory(w.Mine, w.Stride, attackCfg)
	p.res.Coverage = p.Coverage
	return p, nil
}

// The wire plan frame. Every integer is a uvarint, every variable-length
// field is prefixed by its length or count, and the frame ends exactly
// where its last key does:
//
//	"CBWP" version
//	variant  nformats {len name}  repair_flips
//	stride  total_blocks  {len trace_id}  parent_span
//	blocks_scanned  blocks_passed  nkeys
//	{key[64]  count  first_position  {position delta}}
//
// A key's positions are ascending, so each delta after the first is at
// least 1. The decoder holds the frame to the bounds below and to the
// miner's invariants, so a worker never sizes an allocation from a field
// it did not check.
const (
	wirePlanMagic   = "CBWP"
	wirePlanVersion = 4
	// maxWireBlocks bounds TotalBlocks: a 16 GiB image, sixteen times
	// the default upload cap. It also bounds the decoder's position
	// bitset, TotalBlocks/8 bytes.
	maxWireBlocks = 1 << 28
	// maxWireSmall bounds the short fields: the format count, each
	// format name's and the trace ID's length, and RepairFlips.
	maxWireSmall = 1 << 8
)

// EncodeWirePlan serializes w as one wire plan frame. It fails on a plan
// whose scalars DecodeWirePlan would reject, and on a mined key that is
// not 64 bytes or whose Count is not its number of positions.
func EncodeWirePlan(w *WirePlan) ([]byte, error) {
	if w == nil || w.Mine == nil {
		return nil, fmt.Errorf("core: wire plan missing mine pool")
	}
	switch {
	case w.Variant != aes.AES128 && w.Variant != aes.AES192 && w.Variant != aes.AES256:
		return nil, fmt.Errorf("core: wire plan: unknown variant %d", w.Variant)
	case w.TotalBlocks < 0 || w.TotalBlocks > maxWireBlocks:
		return nil, fmt.Errorf("core: wire plan: %d blocks, over the %d-block bound", w.TotalBlocks, maxWireBlocks)
	case w.RepairFlips < 0 || w.RepairFlips > maxWireSmall || len(w.Formats) > maxWireSmall || len(w.Trace.TraceID) > maxWireSmall:
		return nil, fmt.Errorf("core: wire plan: repair flips, formats or trace ID over their bounds")
	}
	size := 64 + len(w.Formats)*16
	for _, k := range w.Mine.Keys {
		if len(k.Key) != BlockBytes || k.Count != len(k.Positions) {
			return nil, fmt.Errorf("core: wire plan: mined key of %d bytes with count %d and %d positions", len(k.Key), k.Count, len(k.Positions))
		}
		size += BlockBytes + binary.MaxVarintLen32 + 2*len(k.Positions)
	}
	return appendWirePlan(make([]byte, 0, size), w), nil
}

// appendWirePlan appends w's frame to b without checking it.
func appendWirePlan(b []byte, w *WirePlan) []byte {
	b = append(b, wirePlanMagic...)
	u := func(v int) { b = binary.AppendUvarint(b, uint64(v)) }
	u(wirePlanVersion)
	u(int(w.Variant))
	u(len(w.Formats))
	for _, f := range w.Formats {
		u(len(f))
		b = append(b, f...)
	}
	u(w.RepairFlips)
	u(w.Stride)
	u(w.TotalBlocks)
	u(len(w.Trace.TraceID))
	b = append(b, w.Trace.TraceID...)
	b = binary.AppendUvarint(b, w.Trace.ParentSpan)
	u(w.Mine.BlocksScanned)
	u(w.Mine.BlocksPassed)
	u(len(w.Mine.Keys))
	for _, k := range w.Mine.Keys {
		b = append(b, k.Key...)
		u(k.Count)
		prev := 0
		for _, p := range k.Positions {
			u(p - prev)
			prev = p
		}
	}
	return b
}

// DecodeWirePlan parses one wire plan frame. It rejects a truncated frame
// or one with bytes after its last key, an unknown version, variant or
// format, a count or length over its bound or over what the rest of the
// frame can hold, a key with no positions, positions that are out of
// range or not ascending within a key, a position that two keys claim,
// and a stride other than the one the positions give (InferStride). Keys
// are a fixed 64 bytes and each one's Count is its number of positions,
// so a frame that breaks either misparses into one of these.
func DecodeWirePlan(frame []byte) (*WirePlan, error) {
	if !bytes.HasPrefix(frame, []byte(wirePlanMagic)) {
		return nil, fmt.Errorf("core: wire plan: not a plan frame")
	}
	d := wireDecoder{buf: frame[len(wirePlanMagic):]}
	if v := d.uint("version", maxWireSmall); d.err == nil && v != wirePlanVersion {
		return nil, fmt.Errorf("core: wire plan: unknown format version %d", v)
	}
	w := &WirePlan{Variant: aes.Variant(d.uint("variant", int(aes.AES256)))}
	if d.err == nil && w.Variant != aes.AES128 && w.Variant != aes.AES192 && w.Variant != aes.AES256 {
		return nil, fmt.Errorf("core: wire plan: unknown variant %d", w.Variant)
	}
	if n := d.uint("format count", maxWireSmall); n > 0 {
		w.Formats = make([]string, n)
		for i := range w.Formats {
			w.Formats[i] = string(d.bytes(d.uint("format name length", maxWireSmall)))
		}
	}
	if d.err == nil {
		if _, err := resolveFormats(w.Formats); err != nil {
			return nil, err
		}
	}
	w.RepairFlips = d.uint("repair flips", maxWireSmall)
	w.Stride = d.uint("stride", maxWireBlocks)
	w.TotalBlocks = d.uint("total blocks", maxWireBlocks)
	w.Trace.TraceID = string(d.bytes(d.uint("trace ID length", maxWireSmall)))
	w.Trace.ParentSpan = d.uint64()
	mine := &MineResult{BlocksScanned: d.uint("blocks scanned", w.TotalBlocks)}
	mine.BlocksPassed = d.uint("blocks passed", mine.BlocksScanned)
	// Each key takes at least its 64 bytes and a count.
	nKeys := d.uint("key count", len(d.buf)/(BlockBytes+1))
	if d.err != nil {
		return nil, d.err
	}
	keySlab := make([]byte, nKeys*BlockBytes)
	if nKeys > 0 {
		mine.Keys = make([]MinedKey, nKeys)
	}
	owned := make([]uint64, (w.TotalBlocks+63)/64)
	// Each position takes at least one byte, so the frame bounds the
	// positions and BlocksPassed bounds them too.
	posSlab := make([]int, 0, min(len(d.buf), mine.BlocksPassed))
	for i := range mine.Keys {
		key := keySlab[i*BlockBytes : (i+1)*BlockBytes : (i+1)*BlockBytes]
		copy(key, d.bytes(BlockBytes))
		count := d.uint("position count", min(len(d.buf), mine.BlocksPassed-len(posSlab)))
		if count == 0 {
			d.fail("key %d has no positions", i)
		}
		first, p := len(posSlab), 0
		for j := range count {
			delta := d.uint("position", w.TotalBlocks)
			p += delta
			switch {
			case j > 0 && delta == 0:
				d.fail("key %d: positions not ascending", i)
			case p >= w.TotalBlocks:
				d.fail("key %d: position %d of %d blocks", i, p, w.TotalBlocks)
			case owned[p/64]&(1<<(p%64)) != 0:
				d.fail("position %d claimed by two keys", p)
			}
			if d.err != nil {
				break
			}
			owned[p/64] |= 1 << (p % 64)
			posSlab = append(posSlab, p)
		}
		if d.err != nil {
			return nil, d.err
		}
		mine.Keys[i] = MinedKey{Key: key, Count: count, Positions: posSlab[first:len(posSlab):len(posSlab)]}
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("core: wire plan: %d bytes after the last key", len(d.buf))
	}
	if s := mine.InferStride(); s != w.Stride {
		return nil, fmt.Errorf("core: wire plan: stride %d, but the positions give %d", w.Stride, s)
	}
	w.Mine = mine
	return w, nil
}

// wireDecoder reads a wire plan frame front to back. The first error
// sticks: later reads return zero values.
type wireDecoder struct {
	buf []byte
	err error
}

func (d *wireDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("core: wire plan: "+format, args...)
	}
}

func (d *wireDecoder) uint64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("truncated or overlong integer")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// uint reads a uvarint field that must not exceed limit.
func (d *wireDecoder) uint(field string, limit int) int {
	v := d.uint64()
	if v > uint64(limit) {
		d.fail("%s %d over its bound %d", field, v, limit)
		return 0
	}
	return int(v)
}

func (d *wireDecoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.buf) {
		d.fail("truncated: %d bytes wanted, %d left", n, len(d.buf))
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}
