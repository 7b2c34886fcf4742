package core

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"

	"coldboot/internal/aes"
)

// KeyDirectory returns the candidate scrambler keys for a given block index
// of the dump. The stride-based directory (ResidueDirectory) returns the
// one or two keys mined for the block's address class; the exhaustive
// directory returns every mined key, which is the paper's literal step 2
// ("descramble individual memory blocks ... with all keys").
//
// The returned slices are READ-ONLY and shared between calls (the same
// contract as Scrambler.KeyAt): the hunt queries the directory once per
// (block, key) pair and per verification chunk, so directories must not
// allocate per call.
type KeyDirectory func(blockIdx int) [][]byte

// AllKeysDirectory builds the exhaustive directory.
func AllKeysDirectory(mine *MineResult) KeyDirectory {
	keys := make([][]byte, len(mine.Keys))
	for i, k := range mine.Keys {
		keys[i] = k.Key
	}
	return func(int) [][]byte { return keys }
}

// ResidueDirectory builds the stride-based directory. The per-residue key
// tables are built once here — lookups return the shared slice for the
// block's address class (read-only, like every KeyDirectory). Its size
// follows the smaller of the stride and the mined positions: a stride
// longer than the sightings gets a table of only the sighted residues.
func ResidueDirectory(mine *MineResult, stride int) KeyDirectory {
	if stride > mine.sightings() {
		return sparseResidueDirectory(mine, stride)
	}
	return denseResidueDirectory(mine, stride)
}

// denseResidueDirectory is ResidueDirectory as one table of the stride.
func denseResidueDirectory(mine *MineResult, stride int) KeyDirectory {
	// Two passes over the sightings: count each residue's key-table size,
	// carve the tables out of one shared backing slab, then fill. The stride
	// is typically thousands of residues with one key each, so per-residue
	// append would cost one allocation per residue; the slab costs four for
	// the whole directory.
	//
	// seen[r] marks the last key index that contributed to residue r, so a
	// key sighted at many positions of one class is listed once, and each
	// residue keeps the mined keys' order.
	seen := make([]int, stride)
	counts := make([]int, stride)
	for i := range seen {
		seen[i] = -1
	}
	total := 0
	for ki, k := range mine.Keys {
		for _, p := range k.Positions {
			r := p % stride
			if seen[r] != ki {
				seen[r] = ki
				counts[r]++
				total++
			}
		}
	}
	slab := make([][]byte, total)
	byRes := make([][][]byte, stride)
	off := 0
	for r, n := range counts {
		byRes[r] = slab[off : off : off+n]
		off += n
		seen[r] = -1
	}
	for ki, k := range mine.Keys {
		for _, p := range k.Positions {
			r := p % stride
			if seen[r] != ki {
				seen[r] = ki
				byRes[r] = append(byRes[r], k.Key)
			}
		}
	}
	return func(blockIdx int) [][]byte {
		return byRes[blockIdx%stride]
	}
}

// sparseResidueDirectory is ResidueDirectory keyed by the sighted residues
// only, with the same per-residue key lists.
func sparseResidueDirectory(mine *MineResult, stride int) KeyDirectory {
	byRes := make(map[int][][]byte)
	last := make(map[int]int) // the last key index listed for a residue
	for ki, k := range mine.Keys {
		for _, p := range k.Positions {
			r := p % stride
			if l, ok := last[r]; !ok || l != ki {
				last[r] = ki
				byRes[r] = append(byRes[r], k.Key)
			}
		}
	}
	for r, keys := range byRes {
		byRes[r] = slices.Clip(keys)
	}
	return func(blockIdx int) [][]byte {
		return byRes[blockIdx%stride]
	}
}

// scheduleScore scores an expanded schedule against the dump: the
// schedule is compared, block by block, against the descrambled dump
// contents at tableStart, taking the best (minimum-distance) candidate key
// for each covered block, and the score is the fraction of schedule bits
// that match (the unbudgeted scheduleMismatch as a match fraction).
//
// A correct master's schedule scores near 1.0 (exactly 1.0 on an
// undecayed dump); an incorrect one scores ~0.5 (random agreement).
// Blocks with no mined key count as fully mismatched, so low mining
// coverage degrades the score honestly instead of silently passing.
func scheduleScore(dump []byte, keys KeyDirectory, schedule []byte, tableStart int) float64 {
	totalBits := len(schedule) * 8
	return matchScore(scheduleMismatch(dump, keys, schedule, tableStart, totalBits), totalBits)
}

// matchScore is the verification score of a schedule with mismatched of its
// totalBits bits wrong. Every schedule score goes through it, so a
// mismatch count and its score agree bit for bit with scheduleScore.
func matchScore(mismatched, totalBits int) float64 {
	return 1 - float64(mismatched)/float64(totalBits)
}

// mismatchBudget is the largest mismatch count of a totalBits-bit schedule
// that still scores >= minScore, or -1 when none does. Scores fall
// strictly as the count rises, so "count <= budget" and "score >=
// minScore" are the same test; the budget is found by bisection on that
// exact float comparison rather than derived by rounding.
func mismatchBudget(totalBits int, minScore float64) int {
	lo, hi := -1, totalBits
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if matchScore(mid, totalBits) >= minScore {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// scheduleMismatch is the verification kernel: it counts the schedule bits
// that differ from the dump at tableStart, block by block, taking the
// best (minimum-distance) directory key per block and counting a block
// with no key as fully mismatched. It returns as soon as the count exceeds
// budget, with some count above budget: a caller that passes the largest
// count that could still change its decision learns the exact count
// whenever it matters. A schedule that does not fit the dump counts as
// fully mismatched (score 0). The hunt calls it with each candidate
// expanded into its worker's scratch, so the per-candidate path performs
// no allocation.
func scheduleMismatch(dump []byte, keys KeyDirectory, schedule []byte, tableStart, budget int) int {
	if tableStart < 0 || tableStart+len(schedule) > len(dump) {
		return len(schedule) * 8
	}
	mismatched := 0
	pos := 0
	for pos < len(schedule) {
		addr := tableStart + pos
		blockIdx := addr / BlockBytes
		inOff := addr % BlockBytes
		chunk := BlockBytes - inOff
		if chunk > len(schedule)-pos {
			chunk = len(schedule) - pos
		}
		stored := dump[blockIdx*BlockBytes+inOff : blockIdx*BlockBytes+inOff+chunk]
		want := schedule[pos : pos+chunk]
		best := chunk * 8
		for _, key := range keys(blockIdx) {
			d := xorDistance(stored, key[inOff:inOff+chunk], want)
			if d < best {
				best = d
			}
		}
		mismatched += best
		if mismatched > budget {
			return mismatched
		}
		pos += chunk
	}
	return mismatched
}

// xorDistance returns hamming(stored ^ key, want), popcounting eight bytes
// per step with a byte tail for the unaligned chunk ends.
func xorDistance(stored, key, want []byte) int {
	d := 0
	i := 0
	for ; i+8 <= len(stored); i += 8 {
		d += bits.OnesCount64(binary.LittleEndian.Uint64(stored[i:]) ^
			binary.LittleEndian.Uint64(key[i:]) ^
			binary.LittleEndian.Uint64(want[i:]))
	}
	for ; i < len(stored); i++ {
		d += bits.OnesCount8(stored[i] ^ key[i] ^ want[i])
	}
	return d
}

// repairer bundles the state the flip-repair searches share: the work
// block in word form (the flip target), and the schedule region's
// observed words under every directory key, so a flipped window is scored
// without the master round trip. A candidate's schedule is the window
// extended outward: schedule expansion is a bijection, so the words the
// window implies in both directions are exactly the expansion of the
// master it implies. The schedule is grown and scored one dump-block chunk
// at a time — the window's own block first, then alternately the next
// block forward and backward — and scoring stops as soon as the count
// passes the budget; most candidates are garbage and stop after two or
// three blocks. Each chunk contributes its minimum over the block's keys,
// as in scheduleMismatch, so a completed count equals scheduleScore's.
type repairer struct {
	rs    *repairScratch
	hit   ScheduleHit
	v     aes.Variant
	nk    int
	words []uint32 // rs.blockWords: the descrambled block, flipped in place
	// chunks lists the schedule's per-block word ranges in schedule order;
	// hitChunk is the one holding the window.
	chunks   []schedChunk
	hitChunk int
	// fixed counts the bits of chunks with no directory key: every
	// candidate mismatches them all.
	fixed     int
	totalBits int
	budget    int
	// rationed marks a ground search, whose budget charges every
	// consistent candidate.
	rationed bool
	// score is the accepted candidate's score once try succeeds; its
	// master is then in rs.best.
	score float64
}

// schedChunk is the part of a candidate schedule that lies in one dump
// block: schedule words [lo, hi). The block's observed words under each of
// its directory keys are stored as keys consecutive (hi-lo)-word runs of
// rs.obs from offset obs.
type schedChunk struct {
	lo, hi int
	obs    int
	keys   int
}

// newRepairer prepares a repair of hit (found in the descrambled block at
// blockIdx) under the acceptance threshold minScore: it loads the work
// words and precomputes, once per call, every chunk's observed words.
func newRepairer(rs *repairScratch, dump []byte, keys KeyDirectory, block []byte, blockIdx int, hit ScheduleHit, v aes.Variant, minScore float64) repairer {
	rs.repairs++
	schedBytes := v.ScheduleBytes()
	r := repairer{
		rs:        rs,
		hit:       hit,
		v:         v,
		nk:        v.Nk(),
		words:     aes.BytesToWordsInto(rs.blockWords[:0], block),
		totalBits: schedBytes * 8,
		budget:    mismatchBudget(schedBytes*8, minScore),
	}
	tableStart := hit.TableStart(blockIdx)
	if tableStart < 0 || tableStart+schedBytes > len(dump) {
		// Off the dump: scheduleScore's 0 for every candidate.
		r.fixed = r.totalBits
		return r
	}
	obs := rs.obs[:0]
	chunks := rs.chunks[:0]
	for pos := 0; pos < schedBytes; {
		addr := tableStart + pos
		b, inOff := addr/BlockBytes, addr%BlockBytes
		n := min(BlockBytes-inOff, schedBytes-pos)
		ch := schedChunk{lo: pos / 4, hi: (pos + n) / 4, obs: len(obs)}
		if ch.lo <= hit.ScheduleIndex && hit.ScheduleIndex < ch.hi {
			r.hitChunk = len(chunks)
		}
		stored := dump[addr : addr+n]
		for _, key := range keys(b) {
			for i := 0; i < n; i += 4 {
				obs = append(obs, binary.BigEndian.Uint32(stored[i:])^binary.BigEndian.Uint32(key[inOff+i:]))
			}
			ch.keys++
		}
		if ch.keys == 0 {
			r.fixed += 8 * n
		}
		chunks = append(chunks, ch)
		pos += n
	}
	rs.obs, rs.chunks = obs, chunks
	r.chunks = chunks
	return r
}

// flip toggles bit (LSB-first within each byte, as in the block's byte
// layout) of the work block.
func (r *repairer) flip(bit int) {
	b := bit / 8
	r.words[b/4] ^= 1 << uint(8*(3-b%4)+bit%8)
}

// consistent rechecks the hit's own in-block prediction on the edited work
// block (the cheap pruner that gates full-schedule scoring).
func (r *repairer) consistent() bool {
	_, ok := predictAndCompare(r.words, r.hit.WordOffset, r.hit.ScheduleIndex, r.v,
		r.hit.VerifiedWords, DefaultAESTolerance)
	return ok
}

// try scores the candidate the current work window implies. When it
// reaches the budget, try builds its master into rs.best, sets r.score
// and reports true.
func (r *repairer) try() bool {
	r.rs.candidates++
	m := r.mismatch()
	if m > r.budget {
		return false
	}
	win := r.words[r.hit.WordOffset : r.hit.WordOffset+r.nk]
	aes.RecoverMasterKeyInto(r.rs.best[:0], win, r.hit.ScheduleIndex, r.v)
	r.score = matchScore(m, r.totalBits)
	return true
}

// mismatch counts the current candidate's mismatched schedule bits,
// growing its schedule outward from the window chunk by chunk and
// returning early, with a count above the budget, once the budget is
// exceeded.
func (r *repairer) mismatch() int {
	c := r.fixed
	if c > r.budget || len(r.chunks) == 0 {
		return c
	}
	w := r.rs.cand[:]
	a, nk, v := r.hit.ScheduleIndex, r.nk, r.v
	copy(w[a:a+nk], r.words[r.hit.WordOffset:])
	h := r.chunks[r.hitChunk]
	aes.ExtendForwardInto(w, 0, a+nk, h.hi, v)
	aes.ExtendBackwardInto(w, 0, h.lo, a, v)
	c += r.chunkMismatch(h, r.budget-c)
	fwd, back := r.hitChunk+1, r.hitChunk-1
	for c <= r.budget && (fwd < len(r.chunks) || back >= 0) {
		if fwd < len(r.chunks) {
			ch := r.chunks[fwd]
			aes.ExtendForwardInto(w, 0, ch.lo, ch.hi, v)
			c += r.chunkMismatch(ch, r.budget-c)
			fwd++
		}
		if back >= 0 && c <= r.budget {
			ch := r.chunks[back]
			aes.ExtendBackwardInto(w, 0, ch.lo, ch.hi, v)
			c += r.chunkMismatch(ch, r.budget-c)
			back--
		}
	}
	if c > r.budget && (fwd < len(r.chunks) || back >= 0) {
		r.rs.earlyExits++
	}
	return c
}

// chunkMismatch is one chunk's share of the count: the minimum over the
// block's keys of the distance between the candidate's words and the
// observed ones (0 for a keyless chunk, which fixed already counts). When
// no key comes within limit the result is some value above limit.
func (r *repairer) chunkMismatch(ch schedChunk, limit int) int {
	if ch.keys == 0 {
		return 0
	}
	cand := r.rs.cand[ch.lo:ch.hi]
	n := len(cand)
	best := limit + 1
	for k := 0; k < ch.keys; k++ {
		obs := r.rs.obs[ch.obs+k*n : ch.obs+(k+1)*n]
		d := 0
		for i, w := range cand {
			d += bits.OnesCount32(w ^ obs[i])
		}
		best = min(best, d)
	}
	return best
}

// reachTable records how far a change in one window byte spreads through
// the key expansion. The schedule's diffusion is byte-level and slow:
// w[i] = w[i-Nk] ^ f(w[i-1]), where f is SubWord (which keeps each byte
// in its lane), RotWord (which rotates the lanes by one) or the identity,
// plus a constant. So a changed byte can change, in each schedule word,
// only the lanes that the union of its two inputs' changed lanes (the
// second rotated where f rotates) reaches, forward and backward alike.
// lanes holds, for the window at schedule index a and window byte j (byte
// j%4, big-endian, of window word j/4), one lane set per schedule word i
// at lanes[(a*4*nk+j)*sw+i]: bit p set when big-endian byte p of word i
// may change. A byte outside the set is the same for every candidate that
// changes only byte j. On average 70 % of an AES-256 schedule's bytes
// stay outside it, and never fewer than a quarter.
type reachTable struct {
	nk, sw int
	lanes  []uint8
}

// reachTables holds one lazily built reachTable per variant (indexed
// (Nk-4)/2), so only an attack that repairs pays for them.
var reachTables [3]struct {
	once sync.Once
	t    *reachTable
}

// reachFor returns v's reach table, building it on first use.
func reachFor(v aes.Variant) *reachTable {
	e := &reachTables[(v.Nk()-4)/2]
	e.once.Do(func() { e.t = newReachTable(v) })
	return e.t
}

// newReachTable propagates each window byte's lane through the expansion
// recurrence in both directions.
func newReachTable(v aes.Variant) *reachTable {
	nk, sw := v.Nk(), v.ScheduleWords()
	t := &reachTable{nk: nk, sw: sw, lanes: make([]uint8, (sw-nk+1)*4*nk*sw)}
	// f maps the lanes of f's input word to the lanes it can change in
	// f(w, i): RotWord moves big-endian byte p to p-1 (mod 4).
	f := func(m uint8, i int) uint8 {
		if i%nk == 0 {
			return (m>>1 | m<<3) & 0xf
		}
		return m
	}
	for a := 0; a+nk <= sw; a++ {
		for j := 0; j < 4*nk; j++ {
			m := t.window(a, j)
			m[a+j/4] = 1 << uint(j%4)
			for i := a + nk; i < sw; i++ {
				m[i] = m[i-nk] | f(m[i-1], i)
			}
			for i := a - 1; i >= 0; i-- {
				m[i] = m[i+nk] | f(m[i+nk-1], i+nk)
			}
		}
	}
	return t
}

// window returns the per-word lane sets of window byte j at schedule
// index a.
func (t *reachTable) window(a, j int) []uint8 {
	off := (a*4*t.nk + j) * t.sw
	return t.lanes[off : off+t.sw]
}

// laneBytes maps a lane set to the word bits it covers.
var laneBytes = func() (m [16]uint32) {
	for s := range m {
		for p := 0; p < 4; p++ {
			if s>>uint(p)&1 != 0 {
				m[s] |= 0xff << uint(8*(3-p))
			}
		}
	}
	return m
}()

// bound fills rs.lb[j], for every window byte j, with a lower bound on
// mismatch() for every candidate whose changes from the current (unflipped)
// window lie in byte j alone: fixed, plus for each chunk the minimum over
// the block's keys of the mismatch on the bytes byte j cannot reach. Those
// bytes are the same in every such candidate's schedule as in the
// unflipped one, so each key's count is at least its count there, and so
// is the chunk's minimum. A candidate with lb[j] > budget cannot be
// accepted and need not be scored.
func (r *repairer) bound() {
	a, nk, v := r.hit.ScheduleIndex, r.nk, r.v
	w := r.rs.cand[:]
	copy(w[a:a+nk], r.words[r.hit.WordOffset:])
	aes.ExtendForwardInto(w, 0, a+nk, v.ScheduleWords(), v)
	aes.ExtendBackwardInto(w, 0, 0, a, v)
	reach := reachFor(v)
	lb := r.rs.lb[:4*nk]
	for j := range lb {
		lb[j] = r.fixed
	}
	var diff [BlockBytes / 4]uint32
	var chunkLB [32]int
	for _, ch := range r.chunks {
		if ch.keys == 0 {
			continue
		}
		n := ch.hi - ch.lo
		for j := range lb {
			chunkLB[j] = math.MaxInt
		}
		for k := 0; k < ch.keys; k++ {
			obs := r.rs.obs[ch.obs+k*n : ch.obs+(k+1)*n]
			total := 0
			for i, o := range obs {
				diff[i] = w[ch.lo+i] ^ o
				total += bits.OnesCount32(diff[i])
			}
			for j := range lb {
				unreached := total
				for i, l := range reach.window(a, j)[ch.lo:ch.hi] {
					unreached -= bits.OnesCount32(diff[i] & laneBytes[l])
				}
				chunkLB[j] = min(chunkLB[j], unreached)
			}
		}
		for j := range lb {
			lb[j] += chunkLB[j]
		}
	}
}

// Ground repair bounds: up to groundRepairFlips suspect bits flipped at
// once, and at most repairScoreBudget candidates scored per call.
const (
	groundRepairFlips = 3
	repairScoreBudget = 1500
)

// Values of repairer.search's flipped argument that name no window byte:
// no flip made yet, or flips in two or more bytes.
const (
	noFlips    = -1
	mixedBytes = -2
)

// repairWindowScratch attempts to fix bit decay inside a hit's schedule
// window. It recovers anchors whose verification region was intact (so
// the hit was detected) but whose window words had decayed (so the derived
// master was garbage). The unflipped window is tried first; then flip
// candidates, each first re-checked against the hit's own in-block
// prediction (cheap) and scored only if it stays consistent.
//
// Both modes run the same depth-first search over a list of window bit
// positions:
//   - blind (groundDump nil): every window bit is a position, and one
//     unbudgeted pass tries each single flip in ascending order;
//   - ground (see groundrepair.go): only the window's suspect bits are
//     positions, searched to depth 1, then 2, up to groundRepairFlips in
//     turn, with at most repairScoreBudget candidates scored in all.
//
// Once the unflipped window fails, bound sets a lower bound on the count of
// every flip in each window byte, and a flip whose bound is over the
// budget is rejected unscored: it cannot pass. Blind repair rejects it
// before the prediction check; ground repair still runs the check and
// charges a consistent candidate to its budget first, so the budget runs
// out where it would if the candidate were scored.
//
// The first candidate to score >= minVerifyScore is returned with its
// exact score and ok; when none does, ok is false. block is the
// descrambled 64-byte block containing the hit; dump (and groundDump) are
// the full captures. The returned master aliases rs.best and is valid
// until the scratch is reused.
func repairWindowScratch(rs *repairScratch, dump, groundDump []byte, keys KeyDirectory, block []byte, blockIdx int, hit ScheduleHit, v aes.Variant) ([]byte, float64, bool) {
	r := newRepairer(rs, dump, keys, block, blockIdx, hit, v, minVerifyScore)
	if r.fixed > r.budget {
		return nil, 0, false // keyless blocks alone sink every candidate
	}
	if r.try() {
		return rs.best[:v.KeyBytes()], r.score, true
	}
	var mask [BlockBytes]byte
	if groundDump != nil {
		mask = SuspectMask(dump, groundDump, blockIdx)
	}
	// Collect the flip positions inside the window (reusing the scratch
	// slice across hits).
	winLo := 4 * hit.WordOffset * 8
	winHi := winLo + 4*r.nk*8
	positions := rs.flipBits[:0]
	for b := winLo; b < winHi; b++ {
		if groundDump == nil || mask[b/8]&(1<<uint(b%8)) != 0 {
			positions = append(positions, b)
		}
	}
	rs.flipBits = positions
	r.bound()
	// Blind repair makes one unbudgeted single-flip pass; ground repair
	// deepens from one flip under the score budget.
	maxFlips, budget := 1, math.MaxInt
	if groundDump != nil {
		maxFlips, budget = groundRepairFlips, repairScoreBudget
		r.rationed = true
	}
	for depth := 1; depth <= maxFlips && budget > 0; depth++ {
		if r.search(positions, 0, depth, &budget, noFlips) {
			return rs.best[:v.KeyBytes()], r.score, true
		}
	}
	return nil, 0, false
}

// search enumerates every combination of 1 to remaining more flips from
// positions[startIdx:], depth-first in ascending position order, with the
// in-block prediction as a pruner, the byte bounds rs.lb as a second one
// and *budget as the hard cost bound. flipped is the window byte holding
// every flip made so far, or noFlips or mixedBytes. It
// reports whether a candidate was accepted (its master is then in
// rs.best).
func (r *repairer) search(positions []int, startIdx, remaining int, budget *int, flipped int) bool {
	for i := startIdx; i < len(positions) && *budget > 0; i++ {
		p := positions[i]
		r.flip(p)
		inByte := p/8 - 4*r.hit.WordOffset
		if flipped != noFlips && flipped != inByte {
			inByte = mixedBytes
		}
		doomed := inByte >= 0 && r.rs.lb[inByte] > r.budget
		if doomed && !r.rationed {
			r.rs.boundRejects++
		} else if r.consistent() {
			*budget--
			if doomed {
				r.rs.boundRejects++
			} else if r.try() {
				return true
			}
		}
		if remaining > 1 && r.search(positions, i+1, remaining-1, budget, inByte) {
			return true
		}
		r.flip(p)
	}
	return false
}

// windowDegenerate reports whether a hit's window is trivial content that
// produces meaningless masters: few distinct words (zeroed or pattern
// memory), or nearly-all-zero / nearly-all-one bits (decayed zero blocks
// descrambled with their key leave a handful of stray bits that defeat an
// exact emptiness check). Real schedule words are high-entropy, so none of
// these conditions ever hold for a genuine hit.
func windowDegenerate(block []byte, hit ScheduleHit, nk int) bool {
	var w [BlockBytes / 4]uint32
	words := aes.BytesToWordsInto(w[:0], block)
	return windowDegenerateWords(words[hit.WordOffset : hit.WordOffset+nk])
}

// windowDegenerateWords is windowDegenerate on one window's words (what the
// hunt's litmus holds).
func windowDegenerateWords(win []uint32) bool {
	nk := len(win)
	// Distinct-word count by pairwise compare: nk <= 8, so this beats any
	// set structure and allocates nothing.
	distinct := 0
	for i, w := range win {
		dup := false
		for k := 0; k < i; k++ {
			if win[k] == w {
				dup = true
				break
			}
		}
		if !dup {
			distinct++
		}
	}
	if distinct <= nk/2 {
		return true
	}
	weight := 0
	for _, w := range win {
		weight += bits.OnesCount32(w)
	}
	total := nk * 32
	return weight < total/8 || weight > total*7/8
}

// refineMasterScratch corrects residual bit errors in a recovered master
// key by exploiting the AES key schedule's redundancy. The expansion
// recurrence is linear except at the subword positions, so a flipped bit in
// most master words propagates UNCHANGED along its word chain (schedule
// indices i ≡ c mod Nk) without ever feeding a transform: the corrupted
// master still verifies at ~0.99 — convincingly, but wrongly. The residual
// between the candidate's expansion and the observed (descrambled) schedule
// then repeats the same flip pattern down the whole chain, so a per-chain
// bitwise majority vote over the residuals recovers the flip mask exactly;
// XORing it into the master word fixes the key. Iterated until no chain
// improves the verification score.
//
// This is the schedule-redundancy error correction that lets the attack
// tolerate decay even when no single anchor window survived intact. A
// candidate replaces the best only with strictly fewer mismatches, so each
// is scored under a budget of one less than the best's count.
//
// The returned master aliases rs.best and is valid until the scratch is
// reused; master may itself alias rs.best or rs.master from an earlier
// scratch call.
func refineMasterScratch(rs *repairScratch, dump []byte, keys KeyDirectory, master []byte, tableStart int, v aes.Variant) ([]byte, float64) {
	best := append(rs.best[:0], master...)
	totalBits := v.ScheduleBytes() * 8
	bestM := scheduleMismatch(dump, keys, aes.ExpandKeyBytesInto(rs.sched[:0], best), tableStart, totalBits)
	if bestM == totalBits {
		return best, 0
	}
	nk := v.Nk()
	// Phase 1 — window consensus: the verified candidate tells us where the
	// schedule lies, so re-derive the master from EVERY Nk-word window of
	// the observed (descrambled) table and keep the best verifier. Sparse
	// decay almost surely leaves at least one window intact, and a clean
	// window yields the exact master.
	observed := observedScheduleWordsInto(rs, dump, keys, aes.ExpandKeyBytesInto(rs.ref[:0], best), tableStart)
	for s := 0; s+nk <= len(observed); s++ {
		cand := aes.RecoverMasterKeyInto(rs.master[:0], observed[s:s+nk], s, v)
		if m := scheduleMismatch(dump, keys, aes.ExpandKeyBytesInto(rs.sched[:0], cand), tableStart, bestM-1); m < bestM {
			best, bestM = append(rs.best[:0], cand...), m
		}
	}
	// Phase 2 — chain-vote error correction for the no-clean-window case.
	for iter := 0; iter < 4; iter++ {
		sched := aes.ExpandKeyInto(rs.refWords[:0], best)
		observed := observedScheduleWordsInto(rs, dump, keys, aes.WordsToBytesInto(rs.ref[:0], sched), tableStart)
		improved := false
		for c := 0; c < nk; c++ {
			var votes [32]int
			count := 0
			for i := c; i < len(sched); i += nk {
				r := sched[i] ^ observed[i]
				for b := 0; b < 32; b++ {
					if r>>uint(b)&1 == 1 {
						votes[b]++
					}
				}
				count++
			}
			var fix uint32
			for b := 0; b < 32; b++ {
				if votes[b]*2 > count {
					fix |= 1 << uint(b)
				}
			}
			if fix == 0 {
				continue
			}
			cand := append(rs.master[:0], best...)
			w := aes.BytesToWordsInto(rs.winWords[:0], cand)
			w[c] ^= fix
			cand = aes.WordsToBytesInto(rs.master[:0], w)
			if m := scheduleMismatch(dump, keys, aes.ExpandKeyBytesInto(rs.sched[:0], cand), tableStart, bestM-1); m < bestM {
				best, bestM = append(rs.best[:0], cand...), m
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return best, matchScore(bestM, totalBits)
}

// observedScheduleWordsInto descrambles the dump region holding the
// candidate schedule, choosing for each block the directory key that best
// matches the reference expansion (the same minimum-distance choice
// scheduleScore makes), and returns the observed schedule words on
// rs.observedWords.
func observedScheduleWordsInto(rs *repairScratch, dump []byte, keys KeyDirectory, reference []byte, tableStart int) []uint32 {
	out := rs.observed[:len(reference)]
	pos := 0
	for pos < len(reference) {
		addr := tableStart + pos
		blockIdx := addr / BlockBytes
		inOff := addr % BlockBytes
		chunk := BlockBytes - inOff
		if chunk > len(reference)-pos {
			chunk = len(reference) - pos
		}
		stored := dump[blockIdx*BlockBytes+inOff : blockIdx*BlockBytes+inOff+chunk]
		want := reference[pos : pos+chunk]
		var bestKey []byte
		bestD := 1 << 30
		for _, key := range keys(blockIdx) {
			if d := xorDistance(stored, key[inOff:inOff+chunk], want); d < bestD {
				bestD, bestKey = d, key
			}
		}
		for i := 0; i < chunk; i++ {
			if bestKey != nil {
				out[pos+i] = stored[i] ^ bestKey[inOff+i]
			} else {
				out[pos+i] = want[i] // uncovered block: neutral (no votes)
			}
		}
		pos += chunk
	}
	return aes.BytesToWordsInto(rs.observedWords[:0], out)
}

// ExtractRemnant recovers the scrambler key of an uncovered block adjacent
// to a verified schedule: once the master is known, the expected plaintext
// at the block is known, so key = stored ^ expected. This is the inverse of
// mining and corresponds to the paper's boundary-block step — pulling the
// remaining key bytes out of the blocks at the edges of the located table.
func ExtractRemnant(dump []byte, master []byte, tableStart int, blockIdx int, v aes.Variant) []byte {
	schedule := aes.ExpandKeyBytes(master)
	blockStart := blockIdx * BlockBytes
	key := make([]byte, BlockBytes)
	known := false
	for i := 0; i < BlockBytes; i++ {
		p := blockStart + i - tableStart
		if p >= 0 && p < len(schedule) {
			key[i] = dump[blockStart+i] ^ schedule[p]
			known = true
		}
	}
	if !known {
		return nil
	}
	return key
}
