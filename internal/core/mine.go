package core

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"coldboot/internal/bitutil"
)

// MinedKey is one distinct scrambler keystream value recovered from a dump.
type MinedKey struct {
	Key       []byte // 64 bytes; majority-voted across all sightings
	Count     int    // number of blocks that exposed this key
	Positions []int  // block indices of the sightings
}

// MineOptions tunes the key miner.
type MineOptions struct {
	// Tolerance is the litmus bit-flip budget per block (default
	// DefaultLitmusTolerance).
	Tolerance int
	// MergeDistance is the maximum hamming distance at which two mined
	// blocks are treated as decayed copies of the same key (default 16;
	// distinct scrambler keys differ in ~256 bits, so even generous merge
	// radii cannot conflate them).
	MergeDistance int
	// MinCount drops keys seen fewer than this many times; the paper notes
	// candidates "that occur more frequently are likely keys" (default 1,
	// i.e. keep everything — the AES stage filters false positives anyway).
	MinCount int
	// MaxBytes limits mining to the first MaxBytes of the dump (0 = all).
	// The paper mined every key from under 16 MB of a loaded system.
	MaxBytes int
}

func (o MineOptions) withDefaults() MineOptions {
	if o.Tolerance == 0 {
		o.Tolerance = DefaultLitmusTolerance
	}
	if o.MergeDistance == 0 {
		o.MergeDistance = 16
	}
	if o.MinCount == 0 {
		o.MinCount = 1
	}
	return o
}

// MineResult holds the miner's output.
type MineResult struct {
	Keys          []MinedKey // sorted by Count descending
	BlocksScanned int
	BlocksPassed  int // blocks that passed the litmus test
}

// MineKeys scans a scrambled memory dump for blocks that pass the
// scrambler-key litmus test — zero-filled memory exposes raw keystream —
// and aggregates the sightings into distinct keys. Repeated sightings of
// the same (possibly decayed) key are merged by bitwise majority vote,
// which is the paper's "filter out modest bit flips with minimal effort".
//
// The block scan checks ctx every mineCancelInterval blocks. A cancelled
// mine returns the result aggregated from the blocks scanned so far
// together with ctx.Err().
func MineKeys(ctx context.Context, dump []byte, opt MineOptions) (*MineResult, error) {
	if len(dump)%BlockBytes != 0 {
		return nil, fmt.Errorf("core: dump length %d not block aligned", len(dump))
	}
	return MineKeysSource(ctx, BytesSource(dump), opt)
}

// mineCancelInterval is how many blocks the mining scan processes between
// context checks (64 KiB of dump — well under a millisecond of work).
const mineCancelInterval = 1024

// MineKeysSource is the streaming miner: it reads the image window by
// window from src, so multi-GB dumps mine in constant memory. MineKeys is
// a thin wrapper over an in-memory source.
func MineKeysSource(ctx context.Context, src BlockSource, opt MineOptions) (*MineResult, error) {
	if src == nil {
		return nil, fmt.Errorf("core: nil dump source")
	}
	opt = opt.withDefaults()
	limitBlocks := src.Blocks()
	if opt.MaxBytes > 0 && opt.MaxBytes/BlockBytes < limitBlocks {
		limitBlocks = opt.MaxBytes / BlockBytes
	}

	m := newMiner(opt)
	window := make([]byte, 0) // lazily sized; a slice source never needs it
	for first := 0; first < limitBlocks; first += mineCancelInterval {
		if err := ctx.Err(); err != nil {
			return m.finish(), err
		}
		n := mineCancelInterval
		if first+n > limitBlocks {
			n = limitBlocks - first
		}
		var chunk []byte
		if s, ok := src.(sliceSource); ok {
			chunk = s.slice(first, n)
		} else {
			if cap(window) < n*BlockBytes {
				window = make([]byte, mineCancelInterval*BlockBytes)
			}
			chunk = window[:n*BlockBytes]
			if err := src.ReadBlocks(first, chunk); err != nil {
				return m.finish(), fmt.Errorf("core: reading mine window at block %d: %w", first, err)
			}
		}
		for b := 0; b < n; b++ {
			m.observe(chunk[b*BlockBytes:(b+1)*BlockBytes], first+b)
		}
	}
	return m.finish(), nil
}

// miner is the incremental key-mining state: blocks are fed in ascending
// index order via observe, and finish aggregates the sightings. Splitting
// the miner from the scan loop lets the resident and streaming paths share
// exactly the same logic (so their outputs are bit-identical).
//
// The representation is flat: unique block contents live in one append-only
// slab addressed through an open-addressed probe table, and each passing
// block records only (group, position) pairs. Observing a block costs one
// hash and (usually) one probe — no per-block allocation, no map-key string
// copies — and the structures double geometrically, so a multi-GB scan's
// allocation count stays logarithmic.
type miner struct {
	opt MineOptions
	res *MineResult
	// slab holds each distinct content group's representative, BlockBytes
	// per group, in first-sighting order.
	slab []byte
	// hashes and counts are per-group content hash and sighting count.
	hashes []uint32
	counts []int32
	// probe is the open-addressed group index: entry = group+1, 0 = empty,
	// linear probing, load factor kept under 1/2.
	probe []int32
	// obsGroup/obsPos log every passing block in scan order (ascending
	// positions), partitioned per key in finish.
	obsGroup []int32
	obsPos   []int
}

func newMiner(opt MineOptions) *miner {
	return &miner{opt: opt, res: &MineResult{}, probe: make([]int32, 1024)}
}

// hashBlock is FNV-1a over the block's eight 64-bit words, folded to 32
// bits. Scrambler keystream is high-entropy, so this distributes well.
func hashBlock(b []byte) uint32 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i+8 <= BlockBytes; i += 8 {
		h ^= binary.LittleEndian.Uint64(b[i:])
		h *= prime
	}
	return uint32(h ^ h>>32)
}

// rep returns group g's representative content (read-only slab view).
func (m *miner) rep(g int32) []byte {
	return m.slab[int(g)*BlockBytes : int(g)*BlockBytes+BlockBytes]
}

// observe feeds one 64-byte block at blockIdx into pass 1 (exact grouping
// of litmus-passing blocks).
func (m *miner) observe(block []byte, blockIdx int) {
	m.res.BlocksScanned++
	if !PassesKeyLitmus(block, m.opt.Tolerance) {
		return
	}
	m.res.BlocksPassed++
	h := hashBlock(block)
	mask := uint32(len(m.probe) - 1)
	i := h & mask
	g := int32(-1)
	for m.probe[i] != 0 {
		cand := m.probe[i] - 1
		if m.hashes[cand] == h && bytes.Equal(m.rep(cand), block) {
			g = cand
			break
		}
		i = (i + 1) & mask
	}
	if g < 0 {
		g = int32(len(m.hashes))
		m.slab = append(m.slab, block...)
		m.hashes = append(m.hashes, h)
		m.counts = append(m.counts, 0)
		m.probe[i] = g + 1
		if int(g+1)*2 >= len(m.probe) {
			m.growProbe()
		}
	}
	m.counts[g]++
	m.obsGroup = append(m.obsGroup, g)
	m.obsPos = append(m.obsPos, blockIdx)
}

func (m *miner) growProbe() {
	np := make([]int32, len(m.probe)*2)
	mask := uint32(len(np) - 1)
	for g := range m.hashes {
		i := m.hashes[g] & mask
		for np[i] != 0 {
			i = (i + 1) & mask
		}
		np[i] = int32(g) + 1
	}
	m.probe = np
}

// finish runs pass 2 — merge near-duplicate groups (decayed copies) into
// canonical keys — and returns the completed result. The reference merge
// walks every group in (count desc, rep asc) order, so canonicals are the
// least-decayed representatives, and joins each to the FIRST canonical
// within MergeDistance. finish reaches the same canonicals, indices and
// votes in three steps that sort only the groups whose order matters:
//
//  1. Groups seen at least twice merge in reference order.
//  2. Every singleton (count 1, nearly all the decayed sightings) is looked
//     up read-only against step 1's canonicals, fanned out over GOMAXPROCS.
//     Singletons come last in reference order and step 1's canonicals have
//     the lowest indices, so a match here is the reference's first match;
//     vote tallies are sums, so the order they are added in is free. A
//     lookup stops at a close enough match on a lone canonical (markLone).
//  3. The unmatched singletons merge in reference order against an index
//     of only the canonicals they create themselves.
//
// The output is bit-identical to the straightforward map-and-rescan
// aggregation (the parity tests pin this). The near-duplicate search is
// segment-indexed instead of quadratic, majority votes are tallied only at
// the bits decay flipped, and positions are partitioned in one counting
// pass.
func (m *miner) finish() *MineResult {
	res := m.res
	nGroups := len(m.hashes)
	var multi, single []int32
	for g, n := range m.counts {
		if n >= 2 {
			multi = append(multi, int32(g))
		} else {
			single = append(single, int32(g))
		}
	}

	cm := newCanonMerger(m.opt.MergeDistance)
	groupCanon := make([]int32, nGroups)
	for _, g := range m.refOrder(multi) {
		groupCanon[g] = cm.add(m.rep(g), m.counts[g])
	}
	cm.markLone()
	m.lookupSingles(cm, single, groupCanon)
	unmatched := single[:0]
	for _, g := range single {
		if c := groupCanon[g]; c >= 0 {
			cm.tally(c, m.rep(g), 1)
		} else {
			unmatched = append(unmatched, g)
		}
	}
	cm.restartIndex()
	for _, g := range m.refOrder(unmatched) {
		groupCanon[g] = cm.add(m.rep(g), 1)
	}

	// Partition the observation log by canonical key. The log is in scan
	// order, so each partition comes out in ascending position order.
	nCanon := len(cm.canon)
	canonTotal := make([]int, nCanon)
	for _, g := range m.obsGroup {
		canonTotal[groupCanon[g]]++
	}
	offsets := make([]int, nCanon+1)
	for c := 0; c < nCanon; c++ {
		offsets[c+1] = offsets[c] + canonTotal[c]
	}
	posSlab := make([]int, len(m.obsPos))
	fill := make([]int, nCanon)
	for oi, g := range m.obsGroup {
		c := groupCanon[g]
		posSlab[offsets[c]+fill[c]] = m.obsPos[oi]
		fill[c]++
	}

	// Emit keys: a canonical starts as its representative, and only bits
	// some merged sighting disagreed on can lose the weighted majority.
	// Key bytes share one slab.
	nFinal := 0
	for c := 0; c < nCanon; c++ {
		if canonTotal[c] >= m.opt.MinCount {
			nFinal++
		}
	}
	keySlab := make([]byte, 0, nFinal*BlockBytes)
	res.Keys = nil
	for c := 0; c < nCanon; c++ {
		total := canonTotal[c]
		if total < m.opt.MinCount {
			continue
		}
		base := len(keySlab)
		e := &cm.canon[c]
		keySlab = append(keySlab, e.rep...)
		key := keySlab[base : base+BlockBytes : base+BlockBytes]
		for bit, dis := range e.dis {
			if dis == 0 {
				continue
			}
			mask := byte(1) << uint(bit%8)
			ones := int(dis)
			if e.rep[bit/8]&mask != 0 {
				ones = total - ones
			}
			if 2*ones > total {
				key[bit/8] |= mask
			} else {
				key[bit/8] &^= mask
			}
		}
		res.Keys = append(res.Keys, MinedKey{
			Key:       key,
			Count:     total,
			Positions: posSlab[offsets[c]:offsets[c+1]:offsets[c+1]],
		})
	}
	sort.Slice(res.Keys, func(i, j int) bool {
		if res.Keys[i].Count != res.Keys[j].Count {
			return res.Keys[i].Count > res.Keys[j].Count
		}
		return string(res.Keys[i].Key) < string(res.Keys[j].Key)
	})
	return res
}

// refOrder sorts groups in place into the reference merge order: count
// descending, then representative ascending. The big-endian first 8 bytes
// order like the representative itself, so bytes.Compare only runs on
// prefix ties.
func (m *miner) refOrder(groups []int32) []int32 {
	type groupKey struct {
		prefix uint64
		count  int32
		g      int32
	}
	keys := make([]groupKey, len(groups))
	for i, g := range groups {
		keys[i] = groupKey{binary.BigEndian.Uint64(m.rep(g)), m.counts[g], g}
	}
	slices.SortFunc(keys, func(a, b groupKey) int {
		if a.count != b.count {
			return cmp.Compare(b.count, a.count)
		}
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		return bytes.Compare(m.rep(a.g), m.rep(b.g))
	})
	for i, k := range keys {
		groups[i] = k.g
	}
	return groups
}

// minParallelLookups is the singleton count per goroutine below which
// finish does not fan the lookups out: a run this short takes well under
// a millisecond, too little to be worth a goroutine.
const minParallelLookups = 1 << 11

// lookupSingles sets groupCanon[g] to each singleton's first canonical
// match, or -1, splitting the singletons into contiguous runs across
// GOMAXPROCS goroutines. cm is only read, and each run writes its own
// groups' slots.
func (m *miner) lookupSingles(cm *canonMerger, single []int32, groupCanon []int32) {
	lookup := func(run []int32) {
		for _, g := range run {
			groupCanon[g] = cm.lookup(m.rep(g))
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(single)/minParallelLookups)
	if workers <= 1 {
		lookup(single)
		return
	}
	var wg sync.WaitGroup
	per := (len(single) + workers - 1) / workers
	for lo := 0; lo < len(single); lo += per {
		wg.Add(1)
		go func(run []int32) {
			defer wg.Done()
			lookup(run)
		}(single[lo:min(lo+per, len(single))])
	}
	wg.Wait()
}

// canonMerger folds near-duplicate groups into canonical keys. The merge
// rule is the reference one — a group joins the FIRST (lowest-index)
// canonical whose representative is within MergeDistance bits — but
// candidates are found through a segment index instead of scanning every
// canonical: split the 64-byte representative into MergeDistance+1 byte
// segments, and any block within MergeDistance BIT flips must match at
// least one segment exactly (pigeonhole: d flipped bits touch at most d
// segments). Looking up each segment's hash yields every possible match;
// NearEqual confirms, and the minimum confirmed index reproduces the
// reference's first-match semantics.
type canonMerger struct {
	md    int
	segs  int
	canon []canonEntry
	// segTable is open-addressed with packed entries:
	// uint64(segHash) | uint64(canonIdx+1)<<32. Zero = empty. Only
	// canonicals are inserted, so it starts small and doubles to keep the
	// load factor under 1/2.
	segTable []uint64
	// linear falls back to the reference scan when segments would be
	// narrower than one byte (enormous MergeDistance).
	linear bool
	// base is the first canonical the index holds: lookups see only
	// canonicals added since the last restartIndex.
	base int32
	// bounds[s]..bounds[s+1] is segment s's byte range.
	bounds [BlockBytes + 1]uint8
	// lone[c] is set when markLone found no other indexed canonical within
	// MergeDistance+loneSlack bits of canonical c; nil while the index
	// grows.
	lone      []bool
	loneSlack int
}

// canonEntry is one canonical key. dis counts, per bit, the sightings that
// disagree with the representative; it stays nil until a second distinct
// content merges in (the common undecayed case is exactly one). A merged
// group differs from rep in at most MergeDistance bits, so the tally is
// only touched at those bits.
type canonEntry struct {
	rep []byte
	dis []int32
}

func newCanonMerger(mergeDistance int) *canonMerger {
	cm := &canonMerger{md: mergeDistance, segs: mergeDistance + 1}
	if cm.segs > BlockBytes || cm.segs < 1 {
		cm.linear = true
		return cm
	}
	for s := range cm.bounds[:cm.segs+1] {
		cm.bounds[s] = uint8(s * BlockBytes / cm.segs)
	}
	cm.segTable = make([]uint64, 1024)
	return cm
}

// segHash hashes segment s of rep, salted by the segment's index so equal
// bytes in different segments don't collide into shared buckets.
func (cm *canonMerger) segHash(rep []byte, s int) uint32 {
	const prime = 1099511628211
	h := uint64(14695981039346656037) ^ uint64(s)*prime
	for _, b := range rep[cm.bounds[s]:cm.bounds[s+1]] {
		h ^= uint64(b)
		h *= prime
	}
	h *= prime
	return uint32(h ^ h>>32)
}

// segHashes hashes every segment of rep into hs.
func (cm *canonMerger) segHashes(rep []byte, hs *[BlockBytes]uint32) {
	for s := range hs[:cm.segs] {
		hs[s] = cm.segHash(rep, s)
	}
}

// add merges one group of n sightings (processed in reference order) and
// returns its canonical index.
func (cm *canonMerger) add(rep []byte, n int32) int32 {
	var hs [BlockBytes]uint32
	c := cm.lookupHashed(rep, &hs)
	if c < 0 {
		c = int32(len(cm.canon))
		cm.canon = append(cm.canon, canonEntry{rep: rep})
		if !cm.linear {
			cm.insertSegs(&hs, c)
		}
		return c
	}
	cm.tally(c, rep, n)
	return c
}

// tally adds n sightings of rep to canonical c's per-bit disagreement
// counts.
func (cm *canonMerger) tally(c int32, rep []byte, n int32) {
	e := &cm.canon[c]
	if e.dis == nil {
		e.dis = make([]int32, BlockBytes*8)
	}
	for w := 0; w < BlockBytes; w += 8 {
		x := binary.LittleEndian.Uint64(e.rep[w:]) ^ binary.LittleEndian.Uint64(rep[w:])
		for ; x != 0; x &= x - 1 {
			e.dis[w*8+bits.TrailingZeros64(x)] += n
		}
	}
}

// restartIndex empties the lookup index: later lookups see only the
// canonicals added after this call.
func (cm *canonMerger) restartIndex() {
	cm.base = int32(len(cm.canon))
	cm.lone = nil
	if !cm.linear {
		cm.segTable = make([]uint64, 1024)
	}
}

// markLone flags each indexed canonical c that has no other indexed
// canonical within r = min(2·MergeDistance, 31) bits. Any canonical within
// MergeDistance of a rep that is itself within loneSlack = r −
// MergeDistance bits of a lone c would be within r of c, so c is that
// rep's only possible match and its lookup may stop there. Neighbours are
// found through a second pigeonhole index of r+1 segments; capping r at 31
// keeps those segments at least 2 bytes wide, so unrelated keys rarely
// share one. The flags hold until the index next changes: call markLone
// once the index is final, as finish does before its read-only singleton
// lookups.
func (cm *canonMerger) markLone() {
	r := min(2*cm.md, BlockBytes/2-1)
	cm.lone, cm.loneSlack = make([]bool, len(cm.canon)), r-cm.md
	if cm.linear || r < cm.md {
		return
	}
	wide := newCanonMerger(r)
	n := len(cm.canon) - int(cm.base)
	size := len(wide.segTable)
	for size*2 < n*wide.segs*3 { // load factor at most 2/3
		size *= 2
	}
	wide.segTable = make([]uint64, size)
	wide.canon = cm.canon // read-only: the same representatives
	var hs [BlockBytes]uint32
	for c := int(cm.base); c < len(cm.canon); c++ {
		wide.segHashes(cm.canon[c].rep, &hs)
		for _, h := range hs[:wide.segs] {
			wide.place(uint64(h) | uint64(c+1)<<32)
		}
	}
	for c := int(cm.base); c < len(cm.canon); c++ {
		wide.segHashes(cm.canon[c].rep, &hs)
		cm.lone[c] = !wide.hasNeighbor(int32(c), &hs)
	}
}

// hasNeighbor reports whether an indexed canonical other than c lies
// within MergeDistance of c's representative, whose segment hashes are hs.
func (cm *canonMerger) hasNeighbor(c int32, hs *[BlockBytes]uint32) bool {
	rep := cm.canon[c].rep
	mask := uint32(len(cm.segTable) - 1)
	for _, h := range hs[:cm.segs] {
		for i := h & mask; cm.segTable[i] != 0; i = (i + 1) & mask {
			o := int32(cm.segTable[i]>>32) - 1
			if uint32(cm.segTable[i]) == h && o != c && bitutil.NearEqual(cm.canon[o].rep, rep, cm.md) {
				return true
			}
		}
	}
	return false
}

// lookup returns the lowest indexed canonical within MergeDistance of rep,
// or -1.
func (cm *canonMerger) lookup(rep []byte) int32 {
	var hs [BlockBytes]uint32
	return cm.lookupHashed(rep, &hs)
}

// lookupHashed is lookup that leaves rep's segment hashes in hs, for
// insertSegs (all of them whenever it returns -1).
func (cm *canonMerger) lookupHashed(rep []byte, hs *[BlockBytes]uint32) int32 {
	if cm.linear {
		for c := int(cm.base); c < len(cm.canon); c++ {
			if bitutil.NearEqual(cm.canon[c].rep, rep, cm.md) {
				return int32(c)
			}
		}
		return -1
	}
	best := int32(-1)
	mask := uint32(len(cm.segTable) - 1)
	// Segment 0 is probed on its own: a decayed sighting of a lone
	// canonical almost always keeps it intact, and the lookup ends there.
	// Otherwise the rest are hashed together before probing, so their
	// table loads (mostly cache misses) issue back to back.
	hs[0] = cm.segHash(rep, 0)
	for s, h := range hs[:cm.segs] {
		if s == 1 {
			for t := 1; t < cm.segs; t++ {
				hs[t] = cm.segHash(rep, t)
			}
			h = hs[1]
		}
		for i := h & mask; cm.segTable[i] != 0; i = (i + 1) & mask {
			if uint32(cm.segTable[i]) != h {
				continue
			}
			c := int32(cm.segTable[i]>>32) - 1
			if best >= 0 && c >= best {
				continue
			}
			if d := bitutil.HammingDistance(cm.canon[c].rep, rep); d <= cm.md {
				if d <= cm.loneSlack && int(c) < len(cm.lone) && cm.lone[c] {
					return c // the only canonical within reach (markLone)
				}
				best = c
			}
		}
	}
	return best
}

// insertSegs indexes canonical c under its segment hashes hs, doubling
// the table first if they would push its load factor to 1/2.
func (cm *canonMerger) insertSegs(hs *[BlockBytes]uint32, c int32) {
	if int(c-cm.base+1)*cm.segs*2 >= len(cm.segTable) {
		old := cm.segTable
		cm.segTable = make([]uint64, len(old)*2)
		for _, e := range old {
			if e != 0 {
				cm.place(e)
			}
		}
	}
	for _, h := range hs[:cm.segs] {
		cm.place(uint64(h) | uint64(c+1)<<32)
	}
}

// place stores a packed entry in the first free slot of its probe chain.
func (cm *canonMerger) place(e uint64) {
	mask := uint32(len(cm.segTable) - 1)
	i := uint32(e) & mask
	for cm.segTable[i] != 0 {
		i = (i + 1) & mask
	}
	cm.segTable[i] = e
}

// InferStride estimates the key-reuse period, in blocks, from the positions
// of repeated keys: sightings of the same key lie a multiple of the key
// pool size apart (4096 blocks per channel on Skylake; twice that in a
// dual-channel interleaved dump). Returns 0 if no key repeats.
//
// This is how an attacker who "has no knowledge of which memory blocks
// share the same scrambler key" (the paper's attack model) discovers the
// sharing structure anyway: the mined keys themselves reveal it.
func (r *MineResult) InferStride() int {
	g := 0
	for _, k := range r.Keys {
		for i := 1; i < len(k.Positions); i++ {
			d := k.Positions[i] - k.Positions[0]
			g = gcd(g, d)
		}
	}
	return g
}

// KeysByResidue indexes the mined keys by block-position residue modulo the
// stride, producing the per-address-class key table the fast attack path
// uses. Keys sighted at multiple residues (possible under heavy decay
// merging) are listed under each.
func (r *MineResult) KeysByResidue(stride int) map[int][]MinedKey {
	if stride <= 0 {
		return nil
	}
	out := make(map[int][]MinedKey)
	for _, k := range r.Keys {
		seen := make(map[int]bool)
		for _, p := range k.Positions {
			res := p % stride
			if !seen[res] {
				seen[res] = true
				out[res] = append(out[res], k)
			}
		}
	}
	return out
}

// Coverage reports the fraction of residue classes (out of stride) for
// which at least one key was mined — the fraction of the address space the
// attack can descramble.
func (r *MineResult) Coverage(stride int) float64 {
	if stride <= 0 {
		return 0
	}
	// Equivalent to len(KeysByResidue(stride))/stride, without building the
	// per-residue map: count residues with at least one sighting.
	covered := make([]bool, stride)
	n := 0
	for _, k := range r.Keys {
		for _, p := range k.Positions {
			if res := p % stride; !covered[res] {
				covered[res] = true
				n++
			}
		}
	}
	return float64(n) / float64(stride)
}

func gcd(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
