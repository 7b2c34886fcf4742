package fleet

import (
	"sync"
	"testing"
	"time"

	"coldboot/internal/core"
	"coldboot/internal/obs"
)

// fakeClock drives the board's monotonic clock, and the coordinator's
// hold and straggler timers, by hand.
type fakeClock struct {
	mu     sync.Mutex
	t      int64
	timers map[*fakeTimer]bool
}

type fakeTimer struct {
	at int64
	c  chan time.Time
}

func (c *fakeClock) now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// advance moves the clock forward and fires every timer now due.
func (c *fakeClock) advance(d int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
	for tm := range c.timers {
		if tm.at <= c.t {
			tm.c <- time.Time{}
			delete(c.timers, tm)
		}
	}
}

// timer is the Coordinator.timer of a coordinator on this clock.
func (c *fakeClock) timer(d time.Duration) (<-chan time.Time, func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tm := &fakeTimer{at: c.t + int64(d), c: make(chan time.Time, 1)}
	if tm.at <= c.t {
		tm.c <- time.Time{}
		return tm.c, func() bool { return false }
	}
	if c.timers == nil {
		c.timers = make(map[*fakeTimer]bool)
	}
	c.timers[tm] = true
	return tm.c, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		pending := c.timers[tm]
		delete(c.timers, tm)
		return pending
	}
}

func testShards(n, blocks int) []core.Shard {
	out := make([]core.Shard, n)
	for i := range out {
		out[i] = core.Shard{Index: i, FirstBlock: i * blocks, Blocks: blocks}
	}
	return out
}

func testBoard(n int, ttl time.Duration) (*Board, *fakeClock) {
	clk := &fakeClock{}
	b := NewBoard(testShards(n, 128), ttl, obs.NewCollector(), nil)
	b.now = clk.now
	return b, clk
}

// boardCount reads one of a testBoard's event counters (fleet.requeues,
// fleet.steals, fleet.stragglers) from its collector.
func boardCount(b *Board, name string) int64 {
	return b.tracer.(*obs.Collector).Counters("")[name]
}

func result(sh core.Shard) core.ShardResult {
	return core.ShardResult{Shard: sh, Pairs: int64(sh.Index + 1)}
}

func TestBoardLeaseCompleteFlow(t *testing.T) {
	b, _ := testBoard(2, time.Minute)
	l1, ok1 := b.Lease("w1")
	l2, ok2 := b.Lease("w2")
	if !ok1 || !ok2 {
		t.Fatal("two shards, two leases expected")
	}
	if l1.Shard.Index == l2.Shard.Index {
		t.Fatal("same shard leased twice with queue non-empty")
	}
	if _, ok := b.Complete(l1.ID, result(l1.Shard), nil); !ok {
		t.Fatal("first completion rejected")
	}
	select {
	case <-b.Done():
		t.Fatal("board done with a shard outstanding")
	default:
	}
	if _, ok := b.Complete(l2.ID, result(l2.Shard), nil); !ok {
		t.Fatal("second completion rejected")
	}
	select {
	case <-b.Done():
	default:
		t.Fatal("board not done after all completions")
	}
	results, err := b.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Shard.Index != 0 || results[1].Shard.Index != 1 {
		t.Fatalf("results out of shard order: %+v", results)
	}
	st := b.Stats()
	if st.Done != 2 || st.Queued != 0 || st.Leased != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBoardExpiryRequeues(t *testing.T) {
	b, clk := testBoard(1, time.Second)
	l, ok := b.Lease("w1")
	if !ok {
		t.Fatal("no lease")
	}
	clk.advance(int64(2 * time.Second))
	if n := b.Expire(); n != 1 {
		t.Fatalf("Expire requeued %d leases, want 1", n)
	}
	if b.Heartbeat(l.ID) {
		t.Fatal("expired lease heartbeat accepted")
	}
	if _, ok := b.Complete(l.ID, result(l.Shard), nil); ok {
		t.Fatal("expired lease completion accepted")
	}
	l2, ok := b.Lease("w2")
	if !ok || l2.Shard.Index != l.Shard.Index || l2.Stolen {
		t.Fatalf("requeued shard not re-leased cleanly: %+v ok=%v", l2, ok)
	}
	if n := boardCount(b, "fleet.requeues"); n != 1 {
		t.Fatalf("fleet.requeues = %d, want 1", n)
	}
}

func TestBoardHeartbeatExtendsLease(t *testing.T) {
	b, clk := testBoard(1, time.Second)
	l, _ := b.Lease("w1")
	for i := 0; i < 5; i++ {
		clk.advance(int64(700 * time.Millisecond))
		if !b.Heartbeat(l.ID) {
			t.Fatalf("heartbeat %d rejected", i)
		}
	}
	if _, ok := b.Complete(l.ID, result(l.Shard), nil); !ok {
		t.Fatal("heartbeat-kept lease could not complete")
	}
	if n := boardCount(b, "fleet.requeues"); n != 0 {
		t.Fatalf("heartbeats did not prevent requeue (%d)", n)
	}
}

// seedHistory records n completed-shard durations of d in the board's
// straggler history, enough (n >= stragglerSampleFloor) to trust its
// bound of about 2d.
func seedHistory(b *Board, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		b.history.Observe(int64(d))
	}
}

// TestBoardWorkStealing: with the queue drained, an idle worker is handed
// a duplicate lease on a shard only once that shard's grant is older than
// the straggler bound; the first completion wins and the loser's result is
// dropped.
func TestBoardWorkStealing(t *testing.T) {
	b, clk := testBoard(1, time.Minute)
	orig, ok := b.Lease("slow")
	if !ok {
		t.Fatal("no initial lease")
	}
	if _, ok := b.Lease("fast"); ok {
		t.Fatal("shard stolen with no straggler history")
	}
	seedHistory(b, stragglerSampleFloor, 10*time.Millisecond)
	clk.advance(int64(15 * time.Millisecond))
	if _, ok := b.Lease("fast"); ok {
		t.Fatal("shard stolen before its grant passed the straggler bound")
	}
	if d, ok := b.NextSteal(); !ok || d <= 0 {
		t.Fatalf("NextSteal = %v, %v; want a wait before the shard turns straggler", d, ok)
	}
	clk.advance(int64(time.Second))
	if d, ok := b.NextSteal(); !ok || d != 0 {
		t.Fatalf("NextSteal = %v, %v past the bound; want 0, true", d, ok)
	}
	dup, ok := b.Lease("fast")
	if !ok || !dup.Stolen || dup.Shard.Index != orig.Shard.Index {
		t.Fatalf("no stolen duplicate past the bound: %+v ok=%v", dup, ok)
	}
	if _, ok := b.Lease("third"); ok {
		t.Fatal("shard with two outstanding leases stolen again")
	}
	if _, ok := b.NextSteal(); ok {
		t.Fatal("NextSteal reports a shard that already has two workers")
	}
	if info, ok := b.Complete(dup.ID, result(dup.Shard), nil); !ok || info.Worker != "fast" || !info.Stolen {
		t.Fatal("stealing worker's completion rejected")
	}
	if _, ok := b.Complete(orig.ID, result(orig.Shard), nil); ok {
		t.Fatal("losing duplicate's completion accepted")
	}
	if st, steals := b.Stats(), boardCount(b, "fleet.steals"); steals != 1 || st.Done != 1 {
		t.Fatalf("stats = %+v, %d steals", st, steals)
	}
	if _, err := b.Results(); err != nil {
		t.Fatal(err)
	}
}

func TestBoardUnknownLease(t *testing.T) {
	b, _ := testBoard(1, time.Minute)
	if b.Heartbeat("nope") {
		t.Fatal("unknown lease heartbeat accepted")
	}
	if _, ok := b.Complete("nope", core.ShardResult{}, nil); ok {
		t.Fatal("unknown lease completion accepted")
	}
}

func TestBoardEmptyIsDone(t *testing.T) {
	b := NewBoard(nil, time.Minute, nil, nil)
	select {
	case <-b.Done():
	default:
		t.Fatal("empty board not immediately done")
	}
	if _, ok := b.Lease("w"); ok {
		t.Fatal("empty board granted a lease")
	}
}
