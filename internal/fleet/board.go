// Package fleet distributes a campaign across processes: a coordinator
// plans the attack (one global mining pass), cuts the dump into shards,
// and hands shards out to workers over HTTP leases; workers scan their
// shard with the exact per-shard pipeline a local campaign uses
// (core.CampaignPlan.ScanShardBytes) and post the results back; the
// coordinator merges through the same Finalize path. Because every phase
// but the transport is shared with core.RunCampaignSource, a fleet
// campaign's Result is byte-identical to a single-process run over the
// same dump.
//
// A lease request is a long poll: a worker that finds no work is held at
// the coordinator until work appears (a campaign registers, a shard is
// requeued, a leased shard turns straggler), it goes away, or a hold of a
// quarter lease TTL elapses, so idle workers neither spin nor sleep
// through a new campaign's first shards.
//
// Failure model: leases expire. A worker that stops heartbeating loses
// its shard back to the queue (requeue). A leased shard whose grant is
// older than the straggler bound — twice the p99 of the coordinator's
// completed-shard durations, once it has seen stragglerSampleFloor of
// them — is a straggler, and an idle worker is handed a duplicate lease
// on it (work stealing); the first completion wins. Shard results are
// idempotent — both copies of a stolen shard produce the same bytes — so
// duplicates are simply dropped.
//
// The package never reads the wall clock (noprint contract): lease
// deadlines come from obs.Now(), the tracer-side monotonic clock.
package fleet

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"coldboot/internal/core"
	"coldboot/internal/obs"
)

// shard lease lifecycle: queued -> leased (1..2 workers) -> done.
const (
	shardQueued = iota
	shardLeased
	shardDone
)

// Lease is one worker's claim on one shard, valid until expiry (renewed
// by heartbeats).
type Lease struct {
	ID     string
	Worker string
	// Shard is the leased shard, in full-dump coordinates.
	Shard core.Shard
	// Stolen marks a duplicate lease granted on a straggling shard.
	Stolen bool

	granted int64 // obs.Now at grant
	expiry  int64 // obs.Now deadline, renewed by Heartbeat
	span    obs.Span
}

type boardShard struct {
	shard    core.Shard
	status   int
	queuedAt int64             // obs.Now when (re)queued, for fleet.lease_wait_ns
	leases   map[string]*Lease // outstanding leases, keyed by lease ID
	result   *core.ShardResult
}

// BoardStats is the board's gauge set (exported at /metrics by the
// coordinator role). Its events — expired leases requeued, duplicate
// leases stolen, stragglers completed — are counted only on the tracer,
// as fleet.requeues, fleet.steals and fleet.stragglers.
type BoardStats struct {
	Queued int `json:"queued"`
	Leased int `json:"leased"`
	Done   int `json:"done"`
	Total  int `json:"total"`
}

// CompleteInfo describes an accepted shard completion: who finished it,
// the lease span the worker's shipped telemetry grafts under, and timing
// for the straggler detector. On a stolen shard only the winning lease
// produces one, so shipped spans are attributed to exactly one worker.
type CompleteInfo struct {
	Worker string
	Stolen bool
	// Span is the shard's (ended) lease span; the coordinator grafts the
	// worker's span tree under it.
	Span obs.Span
	// GrantedNs is the obs.Now timestamp the winning lease was granted —
	// the monotonic floor for clock-corrected grafting.
	GrantedNs int64
	// DurNs is grant-to-completion wall time.
	DurNs int64
	// Straggler is set when DurNs exceeded the straggler bound.
	Straggler bool
}

// Board is the coordinator-side shard lease state machine for one
// campaign. Safe for concurrent use.
type Board struct {
	mu     sync.Mutex
	ttl    int64
	tracer obs.Tracer
	parent obs.Span // campaign root; lease spans are its children
	shards []*boardShard
	leases map[string]*Lease
	queue  []int // indices into shards, FIFO
	done   int
	// history holds completed-shard durations for the straggler bound. A
	// coordinator shares one across its campaigns: a small campaign never
	// completes enough shards to bound its own.
	history *obs.Histogram
	// wake, when set, is called (board lock held) whenever a held lease
	// call could now be granted: a lease expired (its shard requeued, or a
	// stolen shard is down to one worker) or a completion moved the
	// straggler bound.
	wake func()
	seq  uint64
	// settling counts accepted completions whose settle callback is still
	// running; finished closes only once every shard is done and none is
	// settling, and settled wakes an Abort waiting for them.
	settling int
	settled  *sync.Cond
	finished chan struct{}
	now      func() int64 // obs.Now, injectable in tests
}

// NewBoard builds a board over the plan's shard cut. ttl is the lease
// lifetime; a worker must heartbeat faster than this or its shard goes
// back to the queue. parent, when non-nil, is the campaign root span the
// per-shard lease spans nest under, putting every remote shard in the same
// trace tree as a local campaign's shards.
func NewBoard(shards []core.Shard, ttl time.Duration, tracer obs.Tracer, parent obs.Span) *Board {
	b := &Board{
		ttl:      int64(ttl),
		tracer:   obs.OrNop(tracer),
		parent:   parent,
		leases:   make(map[string]*Lease),
		history:  new(obs.Histogram),
		finished: make(chan struct{}),
		now:      obs.Now,
	}
	b.settled = sync.NewCond(&b.mu)
	start := obs.Now()
	for i, sh := range shards {
		b.shards = append(b.shards, &boardShard{
			shard:    sh,
			queuedAt: start,
			leases:   make(map[string]*Lease),
		})
		b.queue = append(b.queue, i)
	}
	if len(shards) == 0 {
		close(b.finished)
	}
	return b
}

// Lease grants worker a shard: the oldest queued one, or — when the queue
// is drained — a duplicate (stolen) lease on the longest-running
// single-leased shard past the straggler bound. ok is false when there is
// nothing to hand out (all shards done or leased, no straggler without a
// second worker on it).
func (b *Board) Lease(worker string) (Lease, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.expireLocked(now)

	var (
		idx    int
		stolen bool
	)
	if len(b.queue) > 0 {
		idx, b.queue = b.queue[0], b.queue[1:]
		b.tracer.Observe("fleet.lease_wait_ns", now-b.shards[idx].queuedAt)
	} else {
		idx, stolen = b.stealTargetLocked(now)
		if !stolen {
			return Lease{}, false
		}
		b.tracer.Count("fleet.steals", 1)
	}
	sh := b.shards[idx]
	sh.status = shardLeased
	b.seq++
	attrs := []obs.Attr{
		obs.A("shard", strconv.Itoa(sh.shard.Index)),
		obs.A("worker", worker),
		obs.A("stolen", strconv.FormatBool(stolen)),
	}
	var span obs.Span
	if b.parent != nil {
		span = b.parent.Child("fleet.lease", attrs...)
	} else {
		span = b.tracer.StartSpan("fleet.lease", attrs...)
	}
	// granted is stamped after the span opens: it is the monotonic floor
	// grafted worker spans are clamped to, so it must not precede the lease
	// span's own start.
	granted := b.now()
	l := &Lease{
		ID:      "l" + strconv.FormatUint(b.seq, 10),
		Worker:  worker,
		Shard:   sh.shard,
		Stolen:  stolen,
		granted: granted,
		expiry:  granted + b.ttl,
		span:    span,
	}
	sh.leases[l.ID] = l
	b.leases[l.ID] = l
	return *l, true
}

// stealTargetLocked picks the straggler to duplicate: of the shards with
// one worker on them whose grant is older than the straggler bound, the
// oldest.
func (b *Board) stealTargetLocked(now int64) (int, bool) {
	bound, ok := b.stragglerBound()
	if !ok {
		return -1, false
	}
	best, bestGrant := -1, int64(0)
	for i, sh := range b.shards {
		g, single := soleGrant(sh)
		if !single || now-g <= bound {
			continue
		}
		if best == -1 || g < bestGrant {
			best, bestGrant = i, g
		}
	}
	return best, best != -1
}

// soleGrant returns the grant time of a leased shard's only lease; ok is
// false unless exactly one worker holds the shard.
func soleGrant(sh *boardShard) (granted int64, ok bool) {
	if sh.status != shardLeased || len(sh.leases) != 1 {
		return 0, false
	}
	for _, l := range sh.leases {
		granted = l.granted
	}
	return granted, true
}

// NextSteal is how long until the first single-leased shard turns
// straggler and Lease would steal it; ok is false while no shard can (no
// trusted bound yet, or no shard with exactly one worker on it). A lease
// call held for work wakes at that point.
func (b *Board) NextSteal() (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	bound, ok := b.stragglerBound()
	if !ok {
		return 0, false
	}
	first, found := int64(0), false
	for _, sh := range b.shards {
		if g, single := soleGrant(sh); single && (!found || g < first) {
			first, found = g, true
		}
	}
	if !found {
		return 0, false
	}
	// A grant turns straggler once its age exceeds the bound, one
	// nanosecond after first+bound.
	return time.Duration(max(first+bound+1-b.now(), 0)), true
}

// stragglerBound is twice the p99 of the completed-shard history; ok is
// false until stragglerSampleFloor completions make that p99 worth
// trusting.
func (b *Board) stragglerBound() (int64, bool) {
	s := b.history.Snapshot("")
	return 2 * s.P99, s.Count >= stragglerSampleFloor
}

// Heartbeat renews a lease's expiry. False means the lease is gone —
// expired and requeued, or its shard already completed — and the worker
// should abandon the scan.
func (b *Board) Heartbeat(leaseID string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.expireLocked(now)
	l, ok := b.leases[leaseID]
	if !ok {
		return false
	}
	l.expiry = now + b.ttl
	return true
}

// stragglerSampleFloor is how many completed shards must be observed
// before the straggler bound is trusted; a p99 over fewer samples is
// noise.
const stragglerSampleFloor = 8

// LeaseAlive reports whether a lease is still outstanding (not expired,
// not completed), and if so its shard. Shard-data reads for dead leases
// are refused on the strength of this check.
func (b *Board) LeaseAlive(leaseID string) (core.Shard, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.expireLocked(b.now())
	l, ok := b.leases[leaseID]
	if !ok {
		return core.Shard{}, false
	}
	return l.Shard, true
}

// Complete records a shard's results under the given lease. accepted is
// false for an unknown lease or a shard another worker already finished
// (the stolen-duplicate loser) — both benign, the results are dropped —
// and for a result whose shard differs from the leased one in any field,
// which leaves the lease to expire.
// When accepted, the CompleteInfo names the winning worker and the lease
// span the worker's telemetry belongs under, and settle (when non-nil)
// runs with it outside the board lock but before Done can close: whatever
// the caller books for the shard is in place before anyone merges the
// campaign, and before Abort returns.
func (b *Board) Complete(leaseID string, res core.ShardResult, settle func(CompleteInfo)) (CompleteInfo, bool) {
	info, ok := b.accept(leaseID, res)
	if !ok {
		return info, false
	}
	if settle != nil {
		settle(info)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.settling--
	if b.settling == 0 {
		b.settled.Broadcast()
		if b.done == len(b.shards) {
			close(b.finished)
		}
	}
	return info, true
}

// accept is Complete's bookkeeping under the board lock; an accepted
// completion leaves the board settling until Complete's settle returns.
func (b *Board) accept(leaseID string, res core.ShardResult) (CompleteInfo, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	l, ok := b.leases[leaseID]
	if !ok {
		return CompleteInfo{}, false
	}
	sh := b.shards[shardByIndex(b.shards, l.Shard.Index)]
	span := l.span
	if res.Shard != l.Shard {
		// A result for any other shard than the leased one is refused. The
		// lease stays out, so its shard requeues at expiry instead of
		// staying leased to nobody.
		return CompleteInfo{}, false
	}
	dur := now - l.granted
	info := CompleteInfo{Worker: l.Worker, Stolen: l.Stolen, Span: span, GrantedNs: l.granted, DurNs: dur}
	// The straggler bound comes from completions BEFORE this one, so the
	// first slow shard in a run can still be flagged. Attrs must land
	// before dropLeaseLocked ends the span.
	if bound, ok := b.stragglerBound(); ok && dur > bound {
		info.Straggler = true
		b.tracer.Count("fleet.stragglers", 1)
		if span != nil {
			span.SetAttr("straggler", "true")
		}
	}
	b.history.Observe(dur)
	b.dropLeaseLocked(l, "complete")
	sh.status = shardDone
	sh.result = &res
	// Retire any duplicate leases still out on this shard.
	for _, dup := range sh.leases {
		b.dropLeaseLocked(dup, "superseded")
	}
	b.done++
	b.tracer.Observe("fleet.shard_ns", dur)
	if l.Worker != "" {
		// Per-worker series: the ";key=value" suffix renders as a Prometheus
		// label, so /metrics exposes one labelled histogram family.
		b.tracer.Observe("fleet.shard_ns;worker="+l.Worker, dur)
	}
	b.settling++
	b.notifyLocked()
	return info, true
}

// Expire requeues every lease whose holder stopped heartbeating. It is
// called internally by Lease/Heartbeat; the coordinator also ticks it so
// a dead fleet's shards requeue even with no worker traffic.
func (b *Board) Expire() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.expireLocked(b.now())
}

func (b *Board) expireLocked(now int64) int {
	n := 0
	for _, l := range b.leases {
		if l.expiry > now {
			continue
		}
		sh := b.shards[shardByIndex(b.shards, l.Shard.Index)]
		b.dropLeaseLocked(l, "expired")
		n++
		if sh.status == shardDone {
			continue
		}
		if len(sh.leases) == 0 {
			sh.status = shardQueued
			sh.queuedAt = now
			b.queue = append(b.queue, shardByIndex(b.shards, l.Shard.Index))
			b.tracer.Count("fleet.requeues", 1)
		}
	}
	if n > 0 {
		b.notifyLocked()
	}
	return n
}

func (b *Board) notifyLocked() {
	if b.wake != nil {
		b.wake()
	}
}

// dropLeaseLocked removes a lease from both indexes and closes its span.
func (b *Board) dropLeaseLocked(l *Lease, outcome string) {
	sh := b.shards[shardByIndex(b.shards, l.Shard.Index)]
	delete(sh.leases, l.ID)
	delete(b.leases, l.ID)
	if l.span != nil {
		l.span.SetAttr("outcome", outcome)
		l.span.End()
		l.span = nil
	}
}

// Done is closed when every shard has a result.
func (b *Board) Done() <-chan struct{} { return b.finished }

// Results returns the completed shard results in shard order. It errors
// if any shard is still outstanding (the merge must see every shard).
func (b *Board) Results() ([]core.ShardResult, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]core.ShardResult, 0, len(b.shards))
	for _, sh := range b.shards {
		if sh.status != shardDone {
			return nil, fmt.Errorf("fleet: shard %d incomplete", sh.shard.Index)
		}
		out = append(out, *sh.result)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard.Index < out[j].Shard.Index })
	return out, nil
}

// Stats snapshots the board's gauges.
func (b *Board) Stats() BoardStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BoardStats{Total: len(b.shards)}
	for _, sh := range b.shards {
		switch sh.status {
		case shardQueued:
			st.Queued++
		case shardLeased:
			st.Leased++
		case shardDone:
			st.Done++
		}
	}
	return st
}

// Abort closes out the board's outstanding lease spans (campaign
// cancelled) and waits for accepted completions still settling; the board
// accepts no useful work afterwards.
func (b *Board) Abort() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, l := range b.leases {
		b.dropLeaseLocked(l, "aborted")
	}
	for b.settling > 0 {
		b.settled.Wait()
	}
}

// shardByIndex maps a shard's campaign index to its slot in the board's
// slice. The two are identical today (boards are built from the plan's
// ordered cut), but the lookup keeps that an implementation detail.
func shardByIndex(shards []*boardShard, index int) int {
	if index >= 0 && index < len(shards) && shards[index].shard.Index == index {
		return index
	}
	for i, sh := range shards {
		if sh.shard.Index == index {
			return i
		}
	}
	return -1
}
