package fleet

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"coldboot/internal/core"
	"coldboot/internal/obs"
)

// Model-based test of the lease boards on the injected clock: random
// sequences of lease, heartbeat, complete, expire and clock advances over
// several campaigns and a few workers, every step checked against a
// reference model of the lease protocol. The boards share one completion
// history, as a coordinator's do; the model keeps its own.

type modelLease struct {
	id      string
	board   int
	shard   int
	worker  string
	granted int64
	expiry  int64
	stolen  bool
	live    bool
}

type modelBoard struct {
	b      *Board
	status []int
	// queue holds requeue groups in FIFO order: shards requeued by one
	// expiry pass come back in map order, so within a group any order is
	// allowed.
	queue    [][]int
	leases   map[int][]*modelLease // shard -> live leases
	accepted []int
	settled  []int
	requeues int
	steals   int
}

type boardModel struct {
	t       *testing.T
	rng     *rand.Rand
	clk     *fakeClock
	ttl     int64
	shared  *obs.Histogram // the boards' history
	history obs.Histogram  // the model's own copy of it
	boards  []*modelBoard
	issued  []*modelLease
}

func newBoardModel(t *testing.T, seed int64) *boardModel {
	return &boardModel{
		t:      t,
		rng:    rand.New(rand.NewSource(seed)),
		clk:    &fakeClock{},
		ttl:    int64(time.Second),
		shared: new(obs.Histogram),
	}
}

func (m *boardModel) register(shards int) {
	b := NewBoard(testShards(shards, 128), time.Duration(m.ttl), obs.NewCollector(), nil)
	b.now = m.clk.now
	b.history = m.shared
	mb := &modelBoard{
		b:        b,
		status:   make([]int, shards),
		leases:   make(map[int][]*modelLease),
		accepted: make([]int, shards),
		settled:  make([]int, shards),
	}
	// A fresh board queues its shards in index order.
	for i := 0; i < shards; i++ {
		mb.queue = append(mb.queue, []int{i})
	}
	m.boards = append(m.boards, mb)
}

// bound is the model's straggler bound.
func (m *boardModel) bound() (int64, bool) {
	s := m.history.Snapshot("")
	return 2 * s.P99, s.Count >= stragglerSampleFloor
}

// expire applies the board's expiry at the current time: dropped leases
// whose shard is left with none requeue as one group. It returns how many
// leases expired.
func (m *boardModel) expire(mb *modelBoard) int {
	now := m.clk.now()
	n := 0
	var group []int
	for shard, ls := range mb.leases {
		kept := ls[:0]
		for _, l := range ls {
			if l.expiry > now {
				kept = append(kept, l)
				continue
			}
			l.live = false
			n++
		}
		if len(kept) == 0 {
			delete(mb.leases, shard)
			if mb.status[shard] == shardLeased {
				mb.status[shard] = shardQueued
				group = append(group, shard)
			}
		} else {
			mb.leases[shard] = kept
		}
	}
	if len(group) > 0 {
		mb.queue = append(mb.queue, group)
		mb.requeues += len(group)
	}
	return n
}

// stealTarget is the model's straggler to duplicate on a board with an
// empty queue: the oldest single-leased grant past the bound, lowest
// shard index on a tie.
func (m *boardModel) stealTarget(mb *modelBoard) (*modelLease, bool) {
	bound, ok := m.bound()
	if !ok {
		return nil, false
	}
	now := m.clk.now()
	var best *modelLease
	for shard := range mb.status {
		ls := mb.leases[shard]
		if len(ls) != 1 || now-ls[0].granted <= bound {
			continue
		}
		if best == nil || ls[0].granted < best.granted || (ls[0].granted == best.granted && shard < best.shard) {
			best = ls[0]
		}
	}
	return best, best != nil
}

// lease asks the boards in registration order, as a coordinator's lease
// scan does, and checks the grant against the model's prediction.
func (m *boardModel) lease(worker string) {
	t := m.t
	for bi, mb := range m.boards {
		m.expire(mb)
		l, ok := mb.b.Lease(worker)
		now := m.clk.now()
		if len(mb.queue) > 0 {
			head := mb.queue[0]
			if !ok || l.Stolen || !slices.Contains(head, l.Shard.Index) {
				t.Fatalf("board %d: Lease = %+v ok=%v, want a queued shard of %v", bi, l, ok, head)
			}
			i := slices.Index(head, l.Shard.Index)
			mb.queue[0] = slices.Delete(head, i, i+1)
			if len(mb.queue[0]) == 0 {
				mb.queue = mb.queue[1:]
			}
			m.grant(mb, bi, l, worker, now)
			return
		}
		target, steal := m.stealTarget(mb)
		if !steal {
			if ok {
				t.Fatalf("board %d: Lease granted %+v with nothing queued and no straggler", bi, l)
			}
			continue
		}
		// A straggler past the bound is stolen by the first lease call that
		// reaches its board: within one tick of crossing.
		if !ok || !l.Stolen || l.Shard.Index != target.shard {
			t.Fatalf("board %d: Lease = %+v ok=%v, want a steal of straggling shard %d", bi, l, ok, target.shard)
		}
		if bound, _ := m.bound(); now-target.granted <= bound {
			t.Fatalf("board %d: steal of shard %d at age %d, within the bound %d", bi, target.shard, now-target.granted, bound)
		}
		mb.steals++
		m.grant(mb, bi, l, worker, now)
		return
	}
}

func (m *boardModel) grant(mb *modelBoard, bi int, l Lease, worker string, now int64) {
	ml := &modelLease{
		id: l.ID, board: bi, shard: l.Shard.Index, worker: worker,
		granted: now, expiry: now + m.ttl, stolen: l.Stolen, live: true,
	}
	mb.status[ml.shard] = shardLeased
	mb.leases[ml.shard] = append(mb.leases[ml.shard], ml)
	m.issued = append(m.issued, ml)
}

func (m *boardModel) heartbeat(l *modelLease) {
	mb := m.boards[l.board]
	m.expire(mb)
	if got := mb.b.Heartbeat(l.id); got != l.live {
		m.t.Fatalf("Heartbeat(%s) = %v, want %v", l.id, got, l.live)
	}
	if l.live {
		l.expiry = m.clk.now() + m.ttl
	}
}

// complete posts l's result, or one for the wrong shard: another index on
// even shards, the right index with another extent on odd ones. Only the
// first completion of a shard is accepted and settles; a stolen shard's
// loser is refused and never reaches the settle step, which is where a
// coordinator grafts the worker's telemetry.
func (m *boardModel) complete(l *modelLease, wrongShard bool) {
	t := m.t
	mb := m.boards[l.board]
	res := result(core.Shard{Index: l.shard, FirstBlock: l.shard * 128, Blocks: 128})
	switch {
	case wrongShard && l.shard%2 == 1:
		res.Shard.Blocks--
	case wrongShard:
		res.Shard.Index = (l.shard + 1) % len(mb.status)
		if res.Shard.Index == l.shard {
			res.Shard.Index = -1
		}
	}
	settles := 0
	info, ok := mb.b.Complete(l.id, res, func(CompleteInfo) { settles++ })
	if !l.live || wrongShard {
		if ok || settles != 0 {
			t.Fatalf("completion of lease %s (live=%v, wrong shard=%v) accepted=%v, settled %d times", l.id, l.live, wrongShard, ok, settles)
		}
		return
	}
	now := m.clk.now()
	dur := now - l.granted
	bound, trusted := m.bound()
	if !ok || settles != 1 || info.Worker != l.worker || info.Stolen != l.stolen || info.DurNs != dur || info.Straggler != (trusted && dur > bound) {
		t.Fatalf("completion of live lease %+v: info %+v ok=%v settles=%d (bound %d trusted=%v)", *l, info, ok, settles, bound, trusted)
	}
	m.history.Observe(dur)
	mb.status[l.shard] = shardDone
	for _, dup := range mb.leases[l.shard] {
		dup.live = false
	}
	delete(mb.leases, l.shard)
	mb.accepted[l.shard]++
	mb.settled[l.shard] += settles
}

// nextSteal checks a board's NextSteal against the model: the earliest
// single-leased grant plus the bound, plus one nanosecond.
func (m *boardModel) nextSteal(bi int) {
	mb := m.boards[bi]
	got, gotOK := mb.b.NextSteal()
	var want time.Duration
	wantOK := false
	if bound, ok := m.bound(); ok {
		for _, ls := range mb.leases {
			if len(ls) != 1 {
				continue
			}
			d := time.Duration(max(ls[0].granted+bound+1-m.clk.now(), 0))
			if !wantOK || d < want {
				want, wantOK = d, true
			}
		}
	}
	if got != want || gotOK != wantOK {
		m.t.Fatalf("board %d: NextSteal = %v, %v; want %v, %v", bi, got, gotOK, want, wantOK)
	}
}

// checkStats compares every board's gauges with the model.
func (m *boardModel) checkStats() {
	for bi, mb := range m.boards {
		want := BoardStats{Total: len(mb.status)}
		for _, st := range mb.status {
			switch st {
			case shardQueued:
				want.Queued++
			case shardLeased:
				want.Leased++
			case shardDone:
				want.Done++
			}
		}
		if got := mb.b.Stats(); got != want {
			m.t.Fatalf("board %d stats %+v, model %+v", bi, got, want)
		}
		requeues, steals := boardCount(mb.b, "fleet.requeues"), boardCount(mb.b, "fleet.steals")
		if requeues != int64(mb.requeues) || steals != int64(mb.steals) {
			m.t.Fatalf("board %d counted %d requeues, %d steals; model %d, %d", bi, requeues, steals, mb.requeues, mb.steals)
		}
	}
}

// step runs one random operation.
func (m *boardModel) step(workers []string) string {
	pick := func() *modelLease {
		if len(m.issued) == 0 {
			return nil
		}
		// Favour recent leases: they are the ones still live.
		n := len(m.issued)
		return m.issued[n-1-m.rng.Intn(min(n, 6))]
	}
	switch r := m.rng.Intn(100); {
	case r < 4 && len(m.boards) < 5:
		m.register(1 + m.rng.Intn(4))
		return "register"
	case r < 34:
		m.lease(workers[m.rng.Intn(len(workers))])
		return "lease"
	case r < 52:
		if l := pick(); l != nil {
			m.heartbeat(l)
		}
		return "heartbeat"
	case r < 72:
		if l := pick(); l != nil {
			m.complete(l, m.rng.Intn(20) == 0)
		}
		return "complete"
	case r < 77:
		if len(m.boards) > 0 {
			bi := m.rng.Intn(len(m.boards))
			want := m.expire(m.boards[bi])
			if got := m.boards[bi].b.Expire(); got != want {
				m.t.Fatalf("board %d: Expire = %d, want %d", bi, got, want)
			}
		}
		return "expire"
	case r < 82:
		if len(m.boards) > 0 {
			m.nextSteal(m.rng.Intn(len(m.boards)))
		}
		return "next-steal"
	default:
		var d time.Duration
		switch m.rng.Intn(10) {
		case 0:
			d = time.Duration(600+m.rng.Intn(900)) * time.Millisecond // near or past the TTL
		case 1, 2:
			d = time.Duration(50+m.rng.Intn(350)) * time.Millisecond
		default:
			d = time.Duration(1+m.rng.Intn(20)) * time.Millisecond
		}
		m.clk.advance(int64(d))
		return "advance"
	}
}

// finish drains the campaigns: every lease expires, every shard is leased
// once more and completed, and each board must end done with every shard
// accepted and settled exactly once.
func (m *boardModel) finish() {
	t := m.t
	m.clk.advance(2 * m.ttl)
	for bi, mb := range m.boards {
		want := m.expire(mb)
		if got := mb.b.Expire(); got != want {
			t.Fatalf("board %d: final Expire = %d, want %d", bi, got, want)
		}
	}
	for {
		before := len(m.issued)
		m.lease("drain")
		if len(m.issued) == before {
			break
		}
		m.complete(m.issued[len(m.issued)-1], false)
	}
	m.checkStats()
	for bi, mb := range m.boards {
		for shard := range mb.status {
			if mb.accepted[shard] != 1 || mb.settled[shard] != 1 {
				t.Fatalf("board %d shard %d accepted %d times, settled %d times; want once", bi, shard, mb.accepted[shard], mb.settled[shard])
			}
		}
		select {
		case <-mb.b.Done():
		default:
			t.Fatalf("board %d not done with every shard accepted", bi)
		}
		if _, err := mb.b.Results(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBoardModel runs random lease-protocol sequences over two or three
// workers and up to five campaigns against the reference model. Each step
// checks the lease granted (queued shards first, in requeue order; else a
// steal of the oldest single-leased shard, and only past the straggler
// bound computed from every campaign's completions, and then on the first
// lease call after the crossing), heartbeat and completion outcomes, the
// straggler flag, NextSteal and the board gauges. A finished sequence
// must have accepted, and settled, every shard exactly once: a stolen
// shard's loser never reaches the settle step that grafts telemetry.
func TestBoardModel(t *testing.T) {
	seqs, steps := 300, 400
	if testing.Short() || raceEnabled {
		// The board model is sequential: the race detector finds nothing
		// in it that fewer sequences would not.
		seqs = 60
	}
	var ops map[string]int
	steals := 0
	for seed := int64(1); seed <= int64(seqs); seed++ {
		m := newBoardModel(t, seed)
		workers := []string{"w1", "w2", "w3"}[:2+m.rng.Intn(2)]
		m.register(1 + m.rng.Intn(4))
		ops = map[string]int{}
		for i := 0; i < steps; i++ {
			ops[m.step(workers)]++
			m.checkStats()
		}
		m.finish()
		for _, mb := range m.boards {
			steals += mb.steals
		}
		if t.Failed() {
			t.Fatalf("seed %d failed after ops %v", seed, ops)
		}
	}
	// The sequences must reach the interesting states, or the model proves
	// nothing about them.
	if steals == 0 {
		t.Fatal("no sequence stole a straggler")
	}
	t.Logf("%d sequences, %d steals", seqs, steals)
}

// heldCall is one long-poll lease call in flight.
type heldCall struct {
	worker    string
	startNs   int64
	cancel    context.CancelFunc
	cancelled bool
	done      chan heldResult
}

type heldResult struct {
	resp leaseResponse
	ok   bool
	err  error
	atNs int64 // fake-clock time of the answer
}

// heldModel drives a coordinator's held lease calls on the fake clock.
type heldModel struct {
	t       *testing.T
	rng     *rand.Rand
	clk     *fakeClock
	c       *Coordinator
	boards  map[string]*Board
	pending []*heldCall
	granted []leaseResponse
	answers map[string]int // outcome -> count
}

func newHeldModel(t *testing.T, seed int64) *heldModel {
	clk := &fakeClock{}
	c := NewCoordinator(time.Second, nil)
	c.timer = clk.timer
	// A hold longer than the TTL keeps calls parked while leases expire
	// under them.
	c.hold = 1500 * time.Millisecond
	return &heldModel{
		t: t, rng: rand.New(rand.NewSource(seed)), clk: clk, c: c,
		boards: make(map[string]*Board), answers: make(map[string]int),
	}
}

func (m *heldModel) register(shards int) {
	cut := testShards(shards, 128)
	s := &session{plan: testPlan(m.t, cut, nil), board: m.c.newBoard(cut, nil)}
	s.board.now = m.clk.now
	m.c.register(s)
	m.boards[s.id] = s.board
}

func (m *heldModel) hold(worker string) {
	ctx, cancel := context.WithCancel(context.Background())
	h := &heldCall{worker: worker, startNs: m.clk.now(), cancel: cancel, done: make(chan heldResult, 1)}
	go func() {
		resp, ok, err := m.c.awaitLease(ctx, worker)
		h.done <- heldResult{resp, ok, err, m.clk.now()}
	}()
	m.pending = append(m.pending, h)
}

// collect takes the answers that arrived and checks each: a lease of a
// registered campaign, 204 only once the hold elapsed, a context error
// only for a cancelled call.
func (m *heldModel) collect() {
	kept := m.pending[:0]
	for _, h := range m.pending {
		var r heldResult
		select {
		case r = <-h.done:
		default:
			kept = append(kept, h)
			continue
		}
		h.cancel()
		switch {
		case r.ok:
			if r.err != nil || m.boards[r.resp.Campaign] == nil || r.resp.Lease == "" {
				m.t.Fatalf("held call of %s answered a bad lease %+v (err %v)", h.worker, r.resp, r.err)
			}
			m.granted = append(m.granted, r.resp)
			m.answers["lease"]++
			if r.resp.Stolen {
				m.answers["steal"]++
			}
		case r.err != nil:
			if !h.cancelled {
				m.t.Fatalf("held call of %s failed uncancelled: %v", h.worker, r.err)
			}
			m.answers["disconnect"]++
		default:
			if held := r.atNs - h.startNs; held < int64(m.c.hold) {
				m.t.Fatalf("held call of %s answered 204 after %v, before the %v hold", h.worker, time.Duration(held), m.c.hold)
			}
			m.answers["204"]++
		}
	}
	m.pending = kept
}

// leasable reports whether some board could grant a lease right now.
func (m *heldModel) leasable() bool {
	for _, b := range m.boards {
		if b.Stats().Queued > 0 {
			return true
		}
		if d, ok := b.NextSteal(); ok && d == 0 {
			return true
		}
	}
	return false
}

// settle waits until every call still in flight is parked and no board
// has a lease to give: a call left parked beside leasable work is a lost
// wakeup.
func (m *heldModel) settle(op string) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		m.collect()
		if len(m.pending) == 0 || (m.c.Stats().Waiting == len(m.pending) && !m.leasable()) {
			return
		}
		if time.Now().After(deadline) {
			m.t.Fatalf("after %s: %d held calls (%d parked) beside leasable work", op, len(m.pending), m.c.Stats().Waiting)
		}
		runtime.Gosched()
	}
}

func (m *heldModel) step(workers []string) string {
	pick := func() (leaseResponse, bool) {
		if len(m.granted) == 0 {
			return leaseResponse{}, false
		}
		n := len(m.granted)
		return m.granted[n-1-m.rng.Intn(min(n, 4))], true
	}
	switch r := m.rng.Intn(100); {
	case r < 8 && len(m.boards) < 4:
		m.register(1 + m.rng.Intn(3))
		return "register"
	case r < 38:
		if len(m.pending) < 3 {
			m.hold(workers[m.rng.Intn(len(workers))])
		}
		return "hold"
	case r < 43:
		if len(m.pending) > 0 {
			h := m.pending[m.rng.Intn(len(m.pending))]
			h.cancelled = true
			h.cancel()
		}
		return "cancel"
	case r < 63:
		if l, ok := pick(); ok {
			m.boards[l.Campaign].Complete(l.Lease, result(l.Shard), nil)
		}
		return "complete"
	case r < 73:
		if l, ok := pick(); ok {
			m.boards[l.Campaign].Heartbeat(l.Lease)
		}
		return "heartbeat"
	case r < 78:
		for _, b := range m.boards {
			b.Expire()
		}
		return "tick"
	default:
		var d time.Duration
		switch m.rng.Intn(8) {
		case 0:
			d = time.Duration(800+m.rng.Intn(700)) * time.Millisecond // past the TTL
		case 1, 2:
			d = time.Duration(100+m.rng.Intn(200)) * time.Millisecond // about the hold
		default:
			d = time.Duration(1+m.rng.Intn(30)) * time.Millisecond
		}
		m.clk.advance(int64(d))
		return "advance"
	}
}

// TestLeaseHeldCallsModel runs random sequences of long-poll lease calls
// against campaign registrations, completions, heartbeats, expiry ticks,
// cancellations and clock advances on the fake clock. After every step
// each call still held must be parked with no lease to give anywhere —
// a campaign registered, a shard requeued or a straggler crossing its
// bound wakes it — and every call is answered: with a lease on wake, 204
// once its hold elapsed, or its context error on disconnect.
func TestLeaseHeldCallsModel(t *testing.T) {
	seqs, steps := 40, 150
	if testing.Short() {
		seqs = 10
	}
	total := map[string]int{}
	for seed := int64(1); seed <= int64(seqs); seed++ {
		m := newHeldModel(t, seed)
		workers := []string{"w1", "w2", "w3"}[:2+m.rng.Intn(2)]
		// Some straggler history: with less than the floor, the bound is
		// first trusted after a completion during the sequence.
		for i := m.rng.Intn(stragglerSampleFloor + 1); i > 0; i-- {
			m.c.history.Observe(int64(time.Duration(20+m.rng.Intn(60)) * time.Millisecond))
		}
		for i := 0; i < steps; i++ {
			m.settle(m.step(workers))
		}
		// Past every hold, every call is answered.
		m.clk.advance(int64(m.c.hold))
		for deadline := time.Now().Add(10 * time.Second); len(m.pending) > 0; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: %d calls unanswered after the hold", seed, len(m.pending))
			}
			m.collect()
		}
		for k, v := range m.answers {
			total[k] += v
		}
	}
	for _, outcome := range []string{"lease", "steal", "204", "disconnect"} {
		if total[outcome] == 0 {
			t.Fatalf("no held call answered with %s (%v): the sequences miss a case", outcome, total)
		}
	}
	t.Logf("held-call outcomes: %v", total)
}
