package core

import (
	"math/bits"
	"sort"

	"coldboot/internal/aes"
	"coldboot/internal/bitutil"
)

// This file is a frozen copy of the pre-PR-6 (seed) per-allocation
// implementations of the mine/verify/repair/refine pipeline. The pooled and
// cached production code must stay byte-identical to these references on
// every fixture — parity_test.go runs the comparisons. Do not "fix" or
// optimize anything here: the whole point is that it does not change.

// refMineKeys is the seed miner: exact grouping through a map keyed by block
// content, quadratic near-duplicate merging, eager per-canonical vote
// tables.
func refMineKeys(dump []byte, opt MineOptions) *MineResult {
	opt = opt.withDefaults()
	limit := len(dump) / BlockBytes
	res := &MineResult{}
	exact := make(map[string][]int)
	for b := 0; b < limit; b++ {
		block := dump[b*BlockBytes : (b+1)*BlockBytes]
		res.BlocksScanned++
		if !PassesKeyLitmus(block, opt.Tolerance) {
			continue
		}
		res.BlocksPassed++
		exact[string(block)] = append(exact[string(block)], b)
	}

	type group struct {
		rep       []byte
		positions []int
	}
	groups := make([]group, 0, len(exact))
	for k, pos := range exact {
		groups = append(groups, group{rep: []byte(k), positions: pos})
	}
	sort.Slice(groups, func(i, j int) bool {
		if len(groups[i].positions) != len(groups[j].positions) {
			return len(groups[i].positions) > len(groups[j].positions)
		}
		return string(groups[i].rep) < string(groups[j].rep)
	})

	type canonical struct {
		votes     [BlockBytes * 8]int
		total     int
		positions []int
		rep       []byte
	}
	var canon []*canonical
	for _, g := range groups {
		var target *canonical
		for _, c := range canon {
			if bitutil.NearEqual(c.rep, g.rep, opt.MergeDistance) {
				target = c
				break
			}
		}
		if target == nil {
			target = &canonical{rep: append([]byte{}, g.rep...)}
			canon = append(canon, target)
		}
		n := len(g.positions)
		for bit := 0; bit < BlockBytes*8; bit++ {
			if g.rep[bit/8]&(1<<uint(bit%8)) != 0 {
				target.votes[bit] += n
			}
		}
		target.total += n
		target.positions = append(target.positions, g.positions...)
	}

	res.Keys = nil
	for _, c := range canon {
		key := make([]byte, BlockBytes)
		for bit := 0; bit < BlockBytes*8; bit++ {
			if 2*c.votes[bit] > c.total {
				key[bit/8] |= 1 << uint(bit%8)
			}
		}
		sort.Ints(c.positions)
		res.Keys = append(res.Keys, MinedKey{Key: key, Count: c.total, Positions: c.positions})
	}
	sort.Slice(res.Keys, func(i, j int) bool {
		if res.Keys[i].Count != res.Keys[j].Count {
			return res.Keys[i].Count > res.Keys[j].Count
		}
		return string(res.Keys[i].Key) < string(res.Keys[j].Key)
	})
	return res
}

// refKeysByResidue is the seed per-residue key index: the mined keys by
// block-position residue modulo the stride, a key sighted at several
// residues listed under each.
func refKeysByResidue(r *MineResult, stride int) map[int][]MinedKey {
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

// refResidueDirectory is the seed stride directory: a fresh [][]byte per
// lookup, built from refKeysByResidue.
func refResidueDirectory(mine *MineResult, stride int) KeyDirectory {
	byRes := refKeysByResidue(mine, stride)
	return func(blockIdx int) [][]byte {
		mk := byRes[blockIdx%stride]
		keys := make([][]byte, len(mk))
		for i, k := range mk {
			keys[i] = k.Key
		}
		return keys
	}
}

// refCoverage is the seed coverage computation (map-based, via
// refKeysByResidue).
func refCoverage(r *MineResult, stride int) float64 {
	if stride <= 0 {
		return 0
	}
	return float64(len(refKeysByResidue(r, stride))) / float64(stride)
}

// refAESLitmus is the seed schedule-window scan: no first-word class
// prefilter, a fresh word conversion and hit slice per call.
func refAESLitmus(block []byte, v aes.Variant, tolerance int) []ScheduleHit {
	if len(block) != BlockBytes {
		panic("core: AES litmus block must be 64 bytes")
	}
	var hits []ScheduleHit
	words := aes.BytesToWords(block)
	nk := v.Nk()
	total := v.ScheduleWords()
	const blockWords = BlockBytes / 4
	for j := 0; j+nk+MinVerifyWords <= blockWords; j++ {
		maxVerify := blockWords - j - nk
		for a := 0; a+nk+MinVerifyWords <= total; a++ {
			verify := total - a - nk
			if verify > maxVerify {
				verify = maxVerify
			}
			d, ok := refPredictAndCompare(words, j, a, nk, verify, tolerance)
			if ok {
				hits = append(hits, ScheduleHit{
					WordOffset:    j,
					ScheduleIndex: a,
					VerifiedWords: verify,
					Distance:      d,
				})
			}
		}
	}
	return hits
}

// refMasterFromHit is the seed master derivation (allocating word
// conversion and backward extension per call).
func refMasterFromHit(block []byte, hit ScheduleHit, v aes.Variant) []byte {
	words := aes.BytesToWords(block)
	nk := v.Nk()
	window := words[hit.WordOffset : hit.WordOffset+nk]
	return aes.RecoverMasterKey(window, hit.ScheduleIndex, v)
}

// refVerifySchedule is the seed verifier: a fresh full expansion per call.
func refVerifySchedule(dump []byte, keys KeyDirectory, master []byte, tableStart int, v aes.Variant) float64 {
	schedule := aes.ExpandKeyBytes(master)
	if tableStart < 0 || tableStart+len(schedule) > len(dump) {
		return 0
	}
	totalBits := len(schedule) * 8
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
		pos += chunk
	}
	return 1 - float64(mismatched)/float64(totalBits)
}

// refWindowDegenerate is the seed degeneracy filter (map-based distinct
// word count).
func refWindowDegenerate(block []byte, hit ScheduleHit, nk int) bool {
	win := block[4*hit.WordOffset : 4*hit.WordOffset+4*nk]
	words := aes.BytesToWords(win)
	distinct := make(map[uint32]bool, len(words))
	for _, w := range words {
		distinct[w] = true
	}
	if len(distinct) <= nk/2 {
		return true
	}
	weight := bitutil.HammingWeight(win)
	total := len(win) * 8
	return weight < total/8 || weight > total*7/8
}

// refPredictAndCompare is the seed in-block prediction: a ring of the last
// nk words and the per-word schedule step below.
func refPredictAndCompare(words []uint32, j, a, nk, verify, tolerance int) (int, bool) {
	var ring [8]uint32
	copy(ring[:nk], words[j:j+nk])
	dist := 0
	pos := 0
	for k := 0; k < verify; k++ {
		i := a + nk + k
		prev := ring[(pos+nk-1)%nk]
		next := ring[pos] ^ refScheduleStep(prev, i, nk)
		dist += bits.OnesCount32(next ^ words[j+nk+k])
		if dist > tolerance {
			return dist, false
		}
		ring[pos] = next
		pos = (pos + 1) % nk
	}
	return dist, true
}

// refScheduleStep is the seed FIPS-197 g/h transform of w[i-1], with its
// own S-box word and round-constant helpers.
func refScheduleStep(prev uint32, i, nk int) uint32 {
	switch {
	case i%nk == 0:
		return refSubWord32(prev<<8|prev>>24) ^ refRconWord(i/nk)
	case nk > 6 && i%nk == 4:
		return refSubWord32(prev)
	default:
		return prev
	}
}

func refSubWord32(w uint32) uint32 {
	return uint32(aes.SubByte(byte(w>>24)))<<24 |
		uint32(aes.SubByte(byte(w>>16)))<<16 |
		uint32(aes.SubByte(byte(w>>8)))<<8 |
		uint32(aes.SubByte(byte(w)))
}

func refRconWord(i int) uint32 {
	c := byte(1)
	for ; i > 1; i-- {
		hi := c & 0x80
		c <<= 1
		if hi != 0 {
			c ^= 0x1B
		}
	}
	return uint32(c) << 24
}

// refRepairWindow is the seed flip repair: fresh work buffer, allocating
// closures, allocating master derivation per candidate.
func refRepairWindow(dump []byte, keys KeyDirectory, block []byte, blockIdx int, hit ScheduleHit, v aes.Variant, maxFlips int, minScore float64) ([]byte, float64) {
	nk := v.Nk()
	tableStart := hit.TableStart(blockIdx)
	work := make([]byte, len(block))
	copy(work, block)

	tryMaster := func() ([]byte, float64) {
		words := aes.BytesToWords(work[4*hit.WordOffset : 4*hit.WordOffset+4*nk])
		master := aes.RecoverMasterKey(words, hit.ScheduleIndex, v)
		return master, refVerifySchedule(dump, keys, master, tableStart, v)
	}
	consistent := func() bool {
		words := aes.BytesToWords(work)
		_, ok := refPredictAndCompare(words, hit.WordOffset, hit.ScheduleIndex, nk,
			hit.VerifiedWords, DefaultAESTolerance)
		return ok
	}

	bestMaster, bestScore := tryMaster()
	winLo := 4 * hit.WordOffset * 8
	winHi := winLo + 4*nk*8
	flip := func(bit int) { work[bit/8] ^= 1 << uint(bit%8) }
	if maxFlips >= 1 {
		for b1 := winLo; b1 < winHi; b1++ {
			flip(b1)
			if consistent() {
				if m, s := tryMaster(); s > bestScore {
					bestMaster, bestScore = m, s
				}
			}
			if maxFlips >= 2 && bestScore < minScore {
				for b2 := b1 + 1; b2 < winHi; b2++ {
					flip(b2)
					if consistent() {
						if m, s := tryMaster(); s > bestScore {
							bestMaster, bestScore = m, s
						}
					}
					flip(b2)
					if bestScore >= minScore {
						break
					}
				}
			}
			flip(b1)
			if bestScore >= minScore {
				break
			}
		}
	}
	return bestMaster, bestScore
}

// refRepairWindowGround is the seed ground-state repair.
func refRepairWindowGround(dump, groundDump []byte, keys KeyDirectory, block []byte, blockIdx int, hit ScheduleHit, v aes.Variant, maxFlips int, minScore float64) ([]byte, float64) {
	const verifyBudget = 1500
	nk := v.Nk()
	tableStart := hit.TableStart(blockIdx)
	mask := SuspectMask(dump, groundDump, blockIdx)

	winLo := 4 * hit.WordOffset * 8
	winHi := winLo + 4*nk*8
	var suspects []int
	for b := winLo; b < winHi; b++ {
		if mask[b/8]&(1<<uint(b%8)) != 0 {
			suspects = append(suspects, b)
		}
	}

	work := make([]byte, len(block))
	copy(work, block)
	flip := func(bit int) { work[bit/8] ^= 1 << uint(bit%8) }
	tryMaster := func() ([]byte, float64) {
		words := aes.BytesToWords(work[4*hit.WordOffset : 4*hit.WordOffset+4*nk])
		master := aes.RecoverMasterKey(words, hit.ScheduleIndex, v)
		return master, refVerifySchedule(dump, keys, master, tableStart, v)
	}
	consistent := func() bool {
		words := aes.BytesToWords(work)
		_, ok := refPredictAndCompare(words, hit.WordOffset, hit.ScheduleIndex, nk,
			hit.VerifiedWords, DefaultAESTolerance)
		return ok
	}

	bestMaster, bestScore := tryMaster()
	if bestScore >= minScore || maxFlips < 1 {
		return bestMaster, bestScore
	}
	budget := verifyBudget
	var search func(startIdx, remaining int)
	search = func(startIdx, remaining int) {
		if bestScore >= minScore || budget <= 0 {
			return
		}
		for i := startIdx; i < len(suspects); i++ {
			flip(suspects[i])
			if consistent() {
				budget--
				if m, s := tryMaster(); s > bestScore {
					bestMaster, bestScore = m, s
					if bestScore >= minScore {
						flip(suspects[i])
						return
					}
				}
			}
			if remaining > 1 {
				search(i+1, remaining-1)
			}
			flip(suspects[i])
			if bestScore >= minScore || budget <= 0 {
				return
			}
		}
	}
	for depth := 1; depth <= maxFlips && bestScore < minScore && budget > 0; depth++ {
		search(0, depth)
	}
	return bestMaster, bestScore
}

// refObservedScheduleWords is the seed observed-schedule reconstruction.
func refObservedScheduleWords(dump []byte, keys KeyDirectory, reference []byte, tableStart int) []uint32 {
	out := make([]byte, len(reference))
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
				out[pos+i] = want[i]
			}
		}
		pos += chunk
	}
	return aes.BytesToWords(out)
}

// refRefineMaster is the seed schedule-redundancy error correction.
func refRefineMaster(dump []byte, keys KeyDirectory, master []byte, tableStart int, v aes.Variant) ([]byte, float64) {
	best := append([]byte{}, master...)
	bestScore := refVerifySchedule(dump, keys, best, tableStart, v)
	if bestScore == 0 {
		return best, bestScore
	}
	nk := v.Nk()
	observed := refObservedScheduleWords(dump, keys, aes.ExpandKeyBytes(best), tableStart)
	for s := 0; s+nk <= len(observed); s++ {
		cand := aes.RecoverMasterKey(observed[s:s+nk], s, v)
		if sc := refVerifySchedule(dump, keys, cand, tableStart, v); sc > bestScore {
			best, bestScore = cand, sc
		}
	}
	for iter := 0; iter < 4; iter++ {
		sched := aes.ExpandKey(best)
		observed := refObservedScheduleWords(dump, keys, aes.WordsToBytes(sched), tableStart)
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
			cand := append([]byte{}, best...)
			w := aes.BytesToWords(cand)
			w[c] ^= fix
			cand = aes.WordsToBytes(w)
			if s := refVerifySchedule(dump, keys, cand, tableStart, v); s > bestScore {
				best, bestScore = cand, s
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return best, bestScore
}

// refAttack is the seed attack pipeline, run serially: mine, directory,
// hunt (with the seed's per-candidate allocation behavior), assemble. It is
// the output oracle for the pooled pipeline with Workers: 1.
func refAttack(dump []byte, cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{BlocksScanned: len(dump) / BlockBytes}

	mine := refMineKeys(dump, MineOptions{Tolerance: DefaultLitmusTolerance})
	res.Mine = mine

	directory := cfg.KeysForBlock
	if directory == nil {
		res.Stride = mine.InferStride()
		if res.Stride == 0 {
			directory = AllKeysDirectory(mine)
		} else {
			res.Coverage = refCoverage(mine, res.Stride)
			directory = refResidueDirectory(mine, res.Stride)
		}
	}
	skip := make(map[int]bool)
	for _, k := range mine.Keys {
		for _, p := range k.Positions {
			skip[p] = true
		}
	}

	found := make(map[string]*FoundKey)
	record := func(master []byte, start int, score float64, v aes.Variant) {
		k := string(master)
		if f, ok := found[k]; ok {
			f.Anchors++
			if score > f.Score {
				f.Score = score
				f.TableStart = start
			}
			return
		}
		found[k] = &FoundKey{
			Master:     append([]byte{}, master...),
			Variant:    v,
			TableStart: start,
			Score:      score,
			Anchors:    1,
		}
	}

	nBlocks := len(dump) / BlockBytes
	nk := cfg.Variant.Nk()
	descrambled := make([]byte, BlockBytes)
	for b := 0; b < nBlocks; b++ {
		if skip[b] {
			continue
		}
		stored := dump[b*BlockBytes : (b+1)*BlockBytes]
		if KeyLitmusDistance(stored) <= zeroBlockSkipDistance {
			continue
		}
		for _, key := range directory(b) {
			res.PairsTested++
			bitutil.XORBlock64(descrambled, stored, key)
			blockHits := refAESLitmus(descrambled, cfg.Variant, DefaultAESTolerance)
			groundRepairsLeft := 4
			for _, hit := range blockHits {
				if refWindowDegenerate(descrambled, hit, nk) {
					continue
				}
				start := hit.TableStart(b)
				if start < 0 || start+cfg.Variant.ScheduleBytes() > len(dump) {
					continue
				}
				master := refMasterFromHit(descrambled, hit, cfg.Variant)
				score := refVerifySchedule(dump, directory, master, start, cfg.Variant)
				if score < minVerifyScore && cfg.GroundDump != nil && groundRepairsLeft > 0 {
					groundRepairsLeft--
					master, score = refRepairWindowGround(dump, cfg.GroundDump, directory,
						descrambled, b, hit, cfg.Variant, 3, minVerifyScore)
				} else if score < minVerifyScore && cfg.RepairFlips > 0 {
					// Re-frozen when the double-flip depth was deleted: any
					// positive RepairFlips searches single flips only.
					master, score = refRepairWindow(dump, directory, descrambled, b, hit,
						cfg.Variant, 1, minVerifyScore)
				}
				if score >= minVerifyScore {
					master, score = refRefineMaster(dump, directory, master, start, cfg.Variant)
					record(master, start, score, cfg.Variant)
				}
			}
		}
	}

	// Seed assemble: rank and suppress shift-family aliases.
	candidates := make([]FoundKey, 0, len(found))
	for _, f := range found {
		candidates = append(candidates, *f)
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Score != candidates[j].Score {
			return candidates[i].Score > candidates[j].Score
		}
		if candidates[i].TableStart != candidates[j].TableStart {
			return candidates[i].TableStart < candidates[j].TableStart
		}
		return string(candidates[i].Master) < string(candidates[j].Master)
	})
	schedBytes := cfg.Variant.ScheduleBytes()
	for _, c := range candidates {
		alias := false
		for _, kept := range res.Keys {
			lo, hi := c.TableStart, c.TableStart+schedBytes
			if kept.TableStart > lo {
				lo = kept.TableStart
			}
			if kept.TableStart+schedBytes < hi {
				hi = kept.TableStart + schedBytes
			}
			if hi-lo >= schedBytes/2 {
				alias = true
				break
			}
		}
		if !alias {
			res.Keys = append(res.Keys, c)
		}
	}
	return res
}
