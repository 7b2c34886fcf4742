package core

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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
}

func (o MineOptions) withDefaults() MineOptions {
	if o.Tolerance == 0 {
		o.Tolerance = DefaultLitmusTolerance
	}
	if o.MergeDistance == 0 {
		o.MergeDistance = 16
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
// mine returns promptly, with the result aggregated from every block
// scanned before the scan stopped, together with ctx.Err().
func MineKeys(ctx context.Context, dump []byte, opt MineOptions) (*MineResult, error) {
	if len(dump)%BlockBytes != 0 {
		return nil, fmt.Errorf("core: dump length %d not block aligned", len(dump))
	}
	return MineKeysSource(ctx, BytesSource(dump), opt)
}

// mineCancelInterval is how many blocks the mining scan processes between
// context checks (64 KiB of dump — well under a millisecond of work). It
// is also the scan window.
const mineCancelInterval = 1024

// minParallelMineBlocks is the dump size, in blocks per goroutine, below
// which the block pass stays on one goroutine (512 KiB of dump, a
// millisecond or two of litmus and grouping).
const minParallelMineBlocks = 1 << 13

// MineKeysSource is the streaming miner: it reads the image window by
// window from src, so multi-GB dumps mine without holding the image. The
// block pass splits the windows into contiguous ranges, one goroutine
// each over GOMAXPROCS: every goroutine reads its range through its own
// window, litmus-tests each block and groups the passing ones by exact
// content, copying each content once per range. The ranges' groups then
// merge, in scan order, into the dump's groups. MineKeys is a thin
// wrapper over an in-memory source.
func MineKeysSource(ctx context.Context, src BlockSource, opt MineOptions) (*MineResult, error) {
	if src == nil {
		return nil, fmt.Errorf("core: nil dump source")
	}
	m := &miner{opt: opt.withDefaults(), res: &MineResult{}}
	err := m.scan(ctx, src)
	return m.finish(), err
}

// miner is the key-mining state: the block pass fills it, and finish
// aggregates it. The representation is flat: each distinct content group
// is an index into per-group slices, its representative a reference into
// the owning range's slab, and each passing block records only its group
// and position. Groups are numbered in order of first sighting.
type miner struct {
	opt    MineOptions
	res    *MineResult
	ranges []passRange // in scan order
	// counts and refs are per-group sighting count and representative:
	// range<<32 | the group's number within that range.
	counts []int32
	refs   []uint64
}

// rep returns group g's representative content (read-only view).
func (m *miner) rep(g int32) []byte {
	ref := m.refs[g]
	return m.ranges[ref>>32].rep(int32(uint32(ref)))
}

// passRange is the block pass over one contiguous range of windows.
type passRange struct {
	// pages hold the range's distinct contents in group order, slabPage
	// groups a page, so they are stored without regrowing.
	pages  [][]byte
	groups groupIndex
	// obsGroup and obsPos log every passing block in scan order: its
	// group (the range's until the merge, the dump's after) and position.
	obsGroup []int32
	obsPos   []int
	scanned  int
	err      error
}

// slabPage is the number of contents one passRange page holds (64 KiB).
const slabPage = 1024

// rep returns the range's group l (read-only view).
func (r *passRange) rep(l int32) []byte {
	k := int(l%slabPage) * BlockBytes
	return r.pages[l/slabPage][k : k+BlockBytes]
}

// store appends the content of the range's newest group.
func (r *passRange) store(block []byte) {
	if len(r.groups.counts)%slabPage == 1 {
		r.pages = append(r.pages, make([]byte, 0, slabPage*BlockBytes))
	}
	last := len(r.pages) - 1
	r.pages[last] = append(r.pages[last], block...)
}

// scan runs the block pass over every block of src and merges the
// ranges' groups. It returns ctx.Err() when cancelled, or the first read
// error; either way the miner keeps every window a range finished.
func (m *miner) scan(ctx context.Context, src BlockSource) error {
	limit := src.Blocks()
	windows := (limit + mineCancelInterval - 1) / mineCancelInterval
	m.ranges = make([]passRange, fanOut(limit, minParallelMineBlocks))
	var stop atomic.Bool // a read failed: every range stops at its next window
	parallelRanges(windows, len(m.ranges), func(r, lo, hi int) {
		m.ranges[r].err = m.scanWindows(ctx, src, lo, hi, limit, &m.ranges[r], &stop)
	})
	var err error
	for _, r := range m.ranges {
		m.res.BlocksScanned += r.scanned
		m.res.BlocksPassed += len(r.obsGroup)
		if err == nil {
			err = r.err
		}
	}
	m.mergeRanges()
	return err
}

// scanWindows runs the block pass over windows [lo, hi) into r: it reads
// one window at a time (borrowing a slice source's bytes instead), checks
// ctx before each, and groups the window's litmus-passing blocks.
func (m *miner) scanWindows(ctx context.Context, src BlockSource, lo, hi, limit int, r *passRange, stop *atomic.Bool) error {
	var (
		window []byte
		// The window's passing blocks and their hashes: the litmus runs
		// over the whole window first, so the probes issue back to back.
		offs   [mineCancelInterval]uint16
		hashes [mineCancelInterval]uint32
	)
	ss, resident := src.(sliceSource)
	r.groups.init()
	rep := r.rep
	for w := lo; w < hi; w++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if stop.Load() {
			return nil
		}
		first := w * mineCancelInterval
		n := min(mineCancelInterval, limit-first)
		var chunk []byte
		if resident {
			chunk = ss.slice(first, n)
		} else {
			if window == nil {
				window = make([]byte, mineCancelInterval*BlockBytes)
			}
			chunk = window[:n*BlockBytes]
			if err := src.ReadBlocks(first, chunk); err != nil {
				stop.Store(true)
				return fmt.Errorf("core: reading mine window at block %d: %w", first, err)
			}
		}
		r.scanned += n
		k := 0
		for b := 0; b < n; b++ {
			if block := chunk[b*BlockBytes : (b+1)*BlockBytes]; PassesKeyLitmus(block, m.opt.Tolerance) {
				offs[k], hashes[k] = uint16(b), hashBlock(block)
				k++
			}
		}
		for i, b := range offs[:k] {
			block := chunk[int(b)*BlockBytes : int(b+1)*BlockBytes]
			l, added := r.groups.find(block, hashes[i], rep)
			if added {
				r.store(block)
			}
			r.groups.counts[l]++
			r.obsGroup = append(r.obsGroup, l)
			r.obsPos = append(r.obsPos, first+int(b))
		}
	}
	return nil
}

// mergeRanges numbers the dump's groups: the first range's groups keep
// their numbers, and every later range's groups, in scan order, join an
// equal group or take the next number. It rewrites each range's log to
// the dump's groups and drops the ranges' indexes.
func (m *miner) mergeRanges() {
	groups := m.ranges[0].groups
	m.refs = make([]uint64, len(groups.counts))
	for l := range m.refs {
		m.refs[l] = uint64(l)
	}
	for ri := 1; ri < len(m.ranges); ri++ {
		r := &m.ranges[ri]
		global := make([]int32, len(r.groups.counts))
		for l := range global {
			rep := r.rep(int32(l))
			g, added := groups.find(rep, hashBlock(rep), m.rep)
			if added {
				m.refs = append(m.refs, uint64(ri)<<32|uint64(l))
			}
			groups.counts[g] += r.groups.counts[l]
			global[l] = g
		}
		for i, l := range r.obsGroup {
			r.obsGroup[i] = global[l]
		}
		r.groups = groupIndex{}
	}
	m.counts = groups.counts
	m.ranges[0].groups = groupIndex{}
}

// groupIndex indexes distinct block contents: per-group sighting counts
// behind an open-addressed probe table (entry uint64(hash) |
// uint64(group+1)<<32, 0 = empty, linear probing, load factor kept under
// 1/2). The contents themselves live with the caller.
type groupIndex struct {
	probe  []uint64
	counts []int32
}

func (x *groupIndex) init() { x.probe = make([]uint64, 1024) }

// find returns the group whose content, read through rep, equals block
// (hash h). A block seen for the first time becomes the next group, with
// count 0, and added is set: the caller stores its content.
func (x *groupIndex) find(block []byte, h uint32, rep func(int32) []byte) (g int32, added bool) {
	mask := uint32(len(x.probe) - 1)
	i := h & mask
	for ; x.probe[i] != 0; i = (i + 1) & mask {
		if uint32(x.probe[i]) == h {
			if cand := int32(x.probe[i]>>32) - 1; bytes.Equal(rep(cand), block) {
				return cand, false
			}
		}
	}
	g = int32(len(x.counts))
	x.counts = append(x.counts, 0)
	x.probe[i] = uint64(h) | uint64(g+1)<<32
	if int(g+1)*2 >= len(x.probe) {
		old := x.probe
		x.probe = make([]uint64, len(old)*2)
		mask := uint32(len(x.probe) - 1)
		for _, e := range old {
			if e == 0 {
				continue
			}
			i := uint32(e) & mask
			for x.probe[i] != 0 {
				i = (i + 1) & mask
			}
			x.probe[i] = e
		}
	}
	return g, true
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

// finish runs pass 2 — merge near-duplicate groups (decayed copies) into
// canonical keys — and returns the completed result. The reference merge
// walks every group in (count desc, rep asc) order, so canonicals are the
// least-decayed representatives, and joins each to the FIRST canonical
// within MergeDistance. finish reaches the same canonicals and indices in
// three steps that sort only the groups whose order matters:
//
//  1. Groups seen at least twice merge in reference order.
//  2. Every singleton (count 1, nearly all the decayed sightings) is looked
//     up read-only against step 1's canonicals, fanned out over GOMAXPROCS.
//     Singletons come last in reference order and step 1's canonicals have
//     the lowest indices, so a match here is the reference's first match.
//     A lookup stops at a close enough match on a lone canonical
//     (markLone).
//  3. The unmatched singletons merge in reference order against an index
//     of only the canonicals they create themselves.
//
// A group that joins an existing canonical logs its flips against the
// canonical's representative while both are at hand. Once every group's
// canonical is known, the flips are bucketed by canonical (a counting
// sort), and each goroutine votes a disjoint range of canonicals with one
// scratch tally, which stays in cache. The output is bit-identical to the
// straightforward map-and-rescan aggregation (the parity tests pin this).
func (m *miner) finish() *MineResult {
	res := m.res
	var multi, single []int32
	for g, n := range m.counts {
		if n >= 2 {
			multi = append(multi, int32(g))
		} else {
			single = append(single, int32(g))
		}
	}

	cm := newCanonMerger(m.opt.MergeDistance)
	groupCanon := make([]int32, len(m.counts))
	var merged []flip
	add := func(g int32) {
		known := cm.count()
		c := cm.add(m.rep(g))
		if int(c) < known {
			merged = appendFlips(merged, c, cm.rep(c), m.rep(g), m.counts[g])
		}
		groupCanon[g] = c
	}
	cm.reserve(len(multi))
	for _, g := range m.refOrder(multi) {
		add(g)
	}
	cm.markLone()
	unmatched, logs := m.lookupSingles(cm, single, groupCanon)
	cm.restartIndex()
	for _, g := range m.refOrder(unmatched) {
		add(g)
	}

	// Bucket the passing blocks by canonical: the ranges' logs are in
	// scan order, so each canonical's positions come out ascending.
	nCanon := cm.count()
	canonTotal := make([]int, nCanon)
	for g, n := range m.counts {
		canonTotal[groupCanon[g]] += int(n)
	}
	offsets := make([]int, nCanon+1)
	for c := 0; c < nCanon; c++ {
		offsets[c+1] = offsets[c] + canonTotal[c]
	}
	posSlab := make([]int, res.BlocksPassed)
	fill := slices.Clone(offsets[:nCanon])
	for _, r := range m.ranges {
		for i, g := range r.obsGroup {
			c := groupCanon[g]
			posSlab[fill[c]] = r.obsPos[i]
			fill[c]++
		}
	}
	flips, flipStart := bucketFlips(nCanon, append(logs, merged))

	// Emit one key per canonical, in canonical order; key bytes share one
	// slab.
	res.Keys = nil
	if nCanon > 0 {
		res.Keys = make([]MinedKey, nCanon)
	}
	keySlab := make([]byte, nCanon*BlockBytes)
	parallelRanges(nCanon, fanOut(nCanon, minParallelCanon), func(_, lo, hi int) {
		var dis [BlockBytes * 8]int32
		for c := lo; c < hi; c++ {
			total := canonTotal[c]
			key := keySlab[c*BlockBytes : (c+1)*BlockBytes : (c+1)*BlockBytes]
			copy(key, cm.rep(int32(c)))
			vote(key, flips[flipStart[c]:flipStart[c+1]], total, &dis)
			res.Keys[c] = MinedKey{
				Key:       key,
				Count:     total,
				Positions: posSlab[offsets[c]:offsets[c+1]:offsets[c+1]],
			}
		}
	})
	sort.Slice(res.Keys, func(i, j int) bool {
		if res.Keys[i].Count != res.Keys[j].Count {
			return res.Keys[i].Count > res.Keys[j].Count
		}
		return string(res.Keys[i].Key) < string(res.Keys[j].Key)
	})
	return res
}

// flip is one vote against a canonical's representative: n sightings of
// a merged group whose representative has bit (0..511) the other way.
type flip struct {
	c      int32
	bit, n uint16
}

// appendFlips logs to flips the bits where rep, a group of n sightings
// merged into canonical c, differs from the canonical's representative
// canon. A group seen more than 65535 times logs each bit in several
// flips.
func appendFlips(flips []flip, c int32, canon, rep []byte, n int32) []flip {
	for w := 0; w < BlockBytes; w += 8 {
		for x := binary.LittleEndian.Uint64(canon[w:]) ^ binary.LittleEndian.Uint64(rep[w:]); x != 0; x &= x - 1 {
			bit := uint16(w*8 + bits.TrailingZeros64(x))
			for left := n; left > 0; left -= math.MaxUint16 {
				flips = append(flips, flip{c, bit, uint16(min(left, math.MaxUint16))})
			}
		}
	}
	return flips
}

// bucketFlips buckets the flip logs by canonical (a counting sort):
// canonical c's flips are flips[start[c]:start[c+1]].
func bucketFlips(nCanon int, logs [][]flip) (flips []flip, start []int) {
	start = make([]int, nCanon+1)
	for _, log := range logs {
		for _, f := range log {
			start[f.c+1]++
		}
	}
	for c := range nCanon {
		start[c+1] += start[c]
	}
	flips = make([]flip, start[nCanon])
	next := slices.Clone(start[:nCanon])
	for _, log := range logs {
		for _, f := range log {
			flips[next[f.c]] = f
			next[f.c]++
		}
	}
	return flips, start
}

// vote turns key, which holds a canonical's representative, into the
// weighted bitwise majority of its total sightings: only the bits in
// flips can lose the majority. dis is the caller's scratch: all zero on
// entry, and left that way.
func vote(key []byte, flips []flip, total int, dis *[BlockBytes * 8]int32) {
	for _, f := range flips {
		dis[f.bit] += int32(f.n)
	}
	for _, f := range flips {
		against := int(dis[f.bit])
		if against == 0 {
			continue // decided at an earlier flip of the same bit
		}
		dis[f.bit] = 0
		mask := byte(1) << (f.bit % 8)
		ones := against
		if key[f.bit/8]&mask != 0 {
			ones = total - against
		}
		if 2*ones > total {
			key[f.bit/8] |= mask
		} else {
			key[f.bit/8] &^= mask
		}
	}
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

// minParallelCanon is the same floor for the per-canonical passes,
// markLone's neighbour checks and the votes, which cost a few times more
// per item than a singleton lookup.
const minParallelCanon = 1 << 9

// mineWorkers, when positive, replaces fanOut's choice: tests set it to
// split dumps far below the size floors.
var mineWorkers int

// fanOut is the goroutine count for n items of mining work: GOMAXPROCS,
// but at least floor items each, and at least one goroutine.
func fanOut(n, floor int) int {
	if mineWorkers > 0 {
		return mineWorkers
	}
	return max(1, min(runtime.GOMAXPROCS(0), n/floor))
}

// parallelRanges splits [0, n) into w contiguous runs, some possibly
// empty, calls fn(run, lo, hi) for each on its own goroutine (inline when
// w is 1), and returns once all are done.
func parallelRanges(n, w int, fn func(run, lo, hi int)) {
	if w <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	per := (n + w - 1) / w
	for r := 0; r < w; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(r, min(r*per, n), min((r+1)*per, n))
		}()
	}
	wg.Wait()
}

// lookupSingles sets groupCanon[g] to each singleton's first canonical
// match, or -1, splitting the singletons into contiguous runs across
// GOMAXPROCS goroutines. cm is only read, and each run writes its own
// groups' slots. It returns the unmatched singletons and one flip log per
// run for the matched ones.
func (m *miner) lookupSingles(cm *canonMerger, single, groupCanon []int32) (unmatched []int32, logs [][]flip) {
	misses := make([][]int32, fanOut(len(single), minParallelLookups))
	logs = make([][]flip, len(misses))
	parallelRanges(len(single), len(misses), func(r, lo, hi int) {
		var hs [BlockBytes]uint32
		// A decayed sighting is typically a bit or two off its key.
		log := make([]flip, 0, 2*(hi-lo))
		for _, g := range single[lo:hi] {
			rep := m.rep(g)
			c := cm.lookupHashed(rep, &hs)
			groupCanon[g] = c
			if c < 0 {
				misses[r] = append(misses[r], g)
			} else {
				log = appendFlips(log, c, cm.rep(c), rep, 1)
			}
		}
		logs[r] = log
	})
	if len(misses) == 1 {
		return misses[0], logs
	}
	return slices.Concat(misses...), logs
}

// canonMerger folds near-duplicate groups into canonical keys. The merge
// rule is the reference one — a group joins the FIRST (lowest-index)
// canonical whose representative is within MergeDistance bits — but
// candidates are found through a segment index instead of scanning every
// canonical: split the 64-byte representative into MergeDistance+1 byte
// segments, and any block within MergeDistance BIT flips must match at
// least one segment exactly (pigeonhole: d flipped bits touch at most d
// segments). Looking up each segment's hash yields every possible match;
// the distance confirms, and the minimum confirmed index reproduces the
// reference's first-match semantics.
type canonMerger struct {
	md   int
	segs int
	// reps holds each canonical's representative, BlockBytes each, by
	// canonical index: copied out of the scattered range pages, the
	// representatives every lookup compares against share few pages.
	reps []byte
	// segTable is open-addressed with packed entries:
	// uint64(segHash) | uint64(canonIdx+1)<<32. Zero = empty. Only
	// canonicals are inserted, so it is sized for them: reserved for the
	// groups step 1 merges, and doubling in step 3, where most unmatched
	// singletons merge into others, to keep the load factor under 1/2.
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

// count is the number of canonicals.
func (cm *canonMerger) count() int { return len(cm.reps) / BlockBytes }

// rep returns canonical c's representative (read-only view).
func (cm *canonMerger) rep(c int32) []byte {
	return cm.reps[int(c)*BlockBytes : int(c+1)*BlockBytes]
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

// add merges one group (processed in reference order) and returns its
// canonical index.
func (cm *canonMerger) add(rep []byte) int32 {
	var hs [BlockBytes]uint32
	c := cm.lookupHashed(rep, &hs)
	if c < 0 {
		c = int32(cm.count())
		cm.reps = append(cm.reps, rep...)
		if !cm.linear {
			cm.insertSegs(&hs, c)
		}
	}
	return c
}

// reserve sizes an empty index, and the representatives, for up to n
// more canonicals, so neither grows while they are added.
func (cm *canonMerger) reserve(n int) {
	cm.reps = slices.Grow(cm.reps, n*BlockBytes)
	if cm.linear {
		return
	}
	size := len(cm.segTable)
	for size <= 2*n*cm.segs {
		size *= 2
	}
	if size > len(cm.segTable) {
		cm.segTable = make([]uint64, size)
	}
}

// restartIndex empties the lookup index: later lookups see only the
// canonicals added after this call.
func (cm *canonMerger) restartIndex() {
	cm.base = int32(cm.count())
	cm.lone = nil
	if !cm.linear {
		cm.segTable = make([]uint64, 1024)
	}
}

// markLone flags each indexed canonical c that has no other indexed
// canonical within r = min(2·MergeDistance, 31) bits. Any canonical within
// MergeDistance of a rep that is itself within loneSlack = r −
// MergeDistance bits of a lone c would be within r of c, so c is that
// rep's only possible match and its lookup may stop there. Neighbours
// share one of r+1 segments exactly (pigeonhole); capping r at 31 keeps
// those segments at least 2 bytes wide, so unrelated keys rarely share
// one. markLone hashes every segment of every canonical (fanned out over
// canonical ranges), radix-sorts the (hash, canonical) pairs, and checks
// only the canonicals whose hashes are equal. The flags hold until the
// index next changes: call markLone once the index is final, as finish
// does before its read-only singleton lookups.
func (cm *canonMerger) markLone() {
	r := min(2*cm.md, BlockBytes/2-1)
	cm.lone, cm.loneSlack = make([]bool, cm.count()), r-cm.md
	if cm.linear || r < cm.md {
		return
	}
	wide := newCanonMerger(r)
	first := int(cm.base)
	n := cm.count() - first
	pairs := make([]uint64, n*wide.segs) // segment hash<<32 | canonical
	parallelRanges(n, fanOut(n, minParallelCanon), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			c := first + i
			cm.lone[c] = true
			for s := range wide.segs {
				pairs[i*wide.segs+s] = uint64(wide.segHash(cm.rep(int32(c)), s))<<32 | uint64(c)
			}
		}
	})
	pairs = radixSortHigh(pairs, make([]uint64, len(pairs)))
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && pairs[j]>>32 == pairs[i]>>32 {
			j++
		}
		for a := i; a < j; a++ {
			for b := a + 1; b < j; b++ {
				ca, cb := int32(pairs[a]), int32(pairs[b])
				if ca != cb && bitutil.NearEqual(cm.rep(ca), cm.rep(cb), r) {
					cm.lone[ca], cm.lone[cb] = false, false
				}
			}
		}
		i = j
	}
}

// radixSortHigh sorts keys by their high 32 bits, 8 bits a pass, using
// tmp (as long as keys) as the other buffer, and returns whichever holds
// the result.
func radixSortHigh(keys, tmp []uint64) []uint64 {
	for shift := 32; shift < 64; shift += 8 {
		var start [257]int
		for _, k := range keys {
			start[k>>shift&0xff+1]++
		}
		for d := 1; d < len(start); d++ {
			start[d] += start[d-1]
		}
		for _, k := range keys {
			d := k >> shift & 0xff
			tmp[start[d]] = k
			start[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// lookupHashed returns the lowest indexed canonical within MergeDistance
// of rep, or -1, and leaves rep's segment hashes in hs for insertSegs (all
// of them whenever it returns -1).
func (cm *canonMerger) lookupHashed(rep []byte, hs *[BlockBytes]uint32) int32 {
	if cm.linear {
		for c := cm.base; int(c) < cm.count(); c++ {
			if bitutil.NearEqual(cm.rep(c), rep, cm.md) {
				return c
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
			if d := bitutil.HammingDistance(cm.rep(c), rep); d <= cm.md {
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

// Coverage reports the fraction of residue classes (out of stride) for
// which at least one key was mined — the fraction of the address space the
// attack can descramble.
func (r *MineResult) Coverage(stride int) float64 {
	if stride <= 0 {
		return 0
	}
	// Count the residues with at least one sighting: in a table of the
	// stride, or in a set of the sighted residues when the stride is longer
	// than the sightings.
	n := 0
	if stride <= r.sightings() {
		covered := make([]bool, stride)
		for _, k := range r.Keys {
			for _, p := range k.Positions {
				if res := p % stride; !covered[res] {
					covered[res] = true
					n++
				}
			}
		}
	} else {
		covered := make(map[int]bool)
		for _, k := range r.Keys {
			for _, p := range k.Positions {
				covered[p%stride] = true
			}
		}
		n = len(covered)
	}
	return float64(n) / float64(stride)
}

// sightings is the number of mined positions.
func (r *MineResult) sightings() int {
	n := 0
	for _, k := range r.Keys {
		n += len(k.Positions)
	}
	return n
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
