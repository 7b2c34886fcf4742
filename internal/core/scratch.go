package core

import (
	"coldboot/internal/aes"
	"coldboot/internal/secret"
)

// Hot-path scratch state. Every buffer the hunt's per-candidate work needs
// lives here, sized for the worst case (AES-256: 60 schedule words, 240
// bytes), so the steady-state scan performs no per-block or per-candidate
// allocations. Each hunt worker owns one huntScratch for its whole block
// range; the embedded repairScratch is threaded into the repair and refine
// stages.
//
// Ownership rule: a scratch is single-goroutine state. Functions taking a
// *repairScratch may clobber every field; callers must copy out anything
// they need before the next scratch-taking call. Return values documented
// as scratch-backed (repairWindowScratch's master, refineMasterScratch's
// master) alias rs.best and are stable only until the scratch is reused.

// repairScratch backs one verify/repair/refine candidate evaluation.
type repairScratch struct {
	// blockWords is the word view of the descrambled block the flip loops
	// edit and recheck.
	blockWords [BlockBytes / 4]uint32
	// winWords holds one Nk-word window (Nk <= 8).
	winWords [8]uint32
	// master holds the candidate master being scored; best holds the best
	// master found so far (returned to the caller).
	master [32]byte
	best   [32]byte
	// sched holds the expansion of the candidate currently being scored;
	// ref holds the reference expansion refinement diffs against.
	sched [aes.MaxScheduleBytes]byte
	ref   [aes.MaxScheduleBytes]byte
	// refWords is the reference schedule in word form (refine phase 2).
	refWords [aes.MaxScheduleWords]uint32
	// observed holds the descrambled dump bytes over the schedule region and
	// observedWords their word view.
	observed      [aes.MaxScheduleBytes]byte
	observedWords [aes.MaxScheduleWords]uint32
	// cand holds a repair candidate's schedule words as they are grown
	// outward from its window.
	cand [aes.MaxScheduleWords]uint32
	// obs holds the repair region's observed words (stored ^ key) for every
	// directory key of every block the schedule covers, and chunks the
	// per-block layout of obs (both grown once, reused across repairs).
	obs    []uint32
	chunks []schedChunk
	// lb holds a repair's per-window-byte lower bounds on a flip's
	// mismatch count (repairer.bound).
	lb [32]int
	// flipBits accumulates a repair's flip positions (grown once, reused
	// across hits).
	flipBits []int
	// repairs, candidates, earlyExits and boundRejects tally the repair
	// searches run, the candidates they scored, the scores stopped at the
	// budget before the whole schedule and the flips rejected unscored by
	// their byte bound, for the hunt's repair.* counters.
	repairs, candidates, earlyExits, boundRejects int64
}

// wipe zeroes every candidate- and key-bearing buffer. Owners call it when
// the scratch retires (worker exit, wrapper return): masters, expanded
// schedules, and descrambled schedule windows all pass through here, and a
// cold-boot tool of all things must not strand them on the heap or stack.
func (rs *repairScratch) wipe() {
	secret.WipeWords(rs.blockWords[:])
	secret.WipeWords(rs.winWords[:])
	secret.Wipe(rs.master[:])
	secret.Wipe(rs.best[:])
	secret.Wipe(rs.sched[:])
	secret.Wipe(rs.ref[:])
	secret.WipeWords(rs.refWords[:])
	secret.Wipe(rs.observed[:])
	secret.WipeWords(rs.observedWords[:])
	secret.WipeWords(rs.cand[:])
	secret.WipeWords(rs.obs[:cap(rs.obs)])
}

// wipe zeroes the worker's descrambled views and candidate buffers,
// including the embedded repair scratch.
func (sc *huntScratch) wipe() {
	secret.Wipe(sc.descrambled[:])
	secret.WipeWords(sc.words[:])
	secret.Wipe(sc.master[:])
	sc.repair.wipe()
}

// huntScratch is one hunt worker's reusable state.
type huntScratch struct {
	// descrambled receives stored ^ key for the block under test.
	descrambled [BlockBytes]byte
	// words is the descrambled block's word view (what the litmus scans).
	words [BlockBytes / 4]uint32
	// hits accumulates the block's schedule hits (grown once, reused).
	hits []ScheduleHit
	// master receives the candidate master derived from a hit window.
	master [32]byte
	// repair backs the verify/repair/refine work for this worker's hits.
	repair repairScratch
}
