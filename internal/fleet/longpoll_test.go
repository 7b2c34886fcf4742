package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coldboot/internal/core"
)

// Long-poll lifecycle of POST /v1/shards/lease over real HTTP.

// longPollServer serves c's protocol and counts the handlers running.
func longPollServer(t *testing.T, c *Coordinator) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	mux := http.NewServeMux()
	c.Register(mux)
	var active atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		active.Add(1)
		defer active.Add(-1)
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &active
}

type leaseAnswer struct {
	status int
	lease  leaseResponse
	at     time.Time
	err    error
}

// postLease makes one lease call in the background.
func postLease(ctx context.Context, base string) <-chan leaseAnswer {
	out := make(chan leaseAnswer, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/shards/lease", strings.NewReader(`{"worker":"probe"}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			out <- leaseAnswer{err: err, at: time.Now()}
			return
		}
		defer resp.Body.Close()
		a := leaseAnswer{status: resp.StatusCode}
		if resp.StatusCode == http.StatusOK {
			a.err = json.NewDecoder(resp.Body).Decode(&a.lease)
		}
		a.at = time.Now()
		out <- a
	}()
	return out
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) time.Time {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	return time.Now()
}

// TestLeaseWakesOnCampaign: a lease call held with no campaign running is
// answered with a lease as soon as Run registers one, not at the end of
// its hold.
func TestLeaseWakesOnCampaign(t *testing.T) {
	c := NewCoordinator(time.Minute, nil)
	srv, _ := longPollServer(t, c)
	answer := postLease(context.Background(), srv.URL)
	waitFor(t, "the lease call to park", func() bool { return c.Stats().Waiting == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		c.Run(ctx, core.BytesSource(make([]byte, 256<<10)), core.CampaignConfig{ShardBlocks: 1024})
	}()
	defer func() { cancel(); <-runDone }()
	registered := waitFor(t, "the campaign to register", func() bool { return c.Stats().Campaigns == 1 })
	a := <-answer
	if a.err != nil || a.status != http.StatusOK || a.lease.Lease == "" {
		t.Fatalf("held lease call answered HTTP %d %+v (err %v), want a lease", a.status, a.lease, a.err)
	}
	// The old protocol re-polled every 250ms; a woken call answers within
	// a scheduling delay of the registration.
	if lag := a.at.Sub(registered); lag > 100*time.Millisecond {
		t.Fatalf("lease answered %v after the campaign registered", lag)
	}
}

// TestLeaseHoldAnswersNoContent: with no work, a lease call is held for
// the hold and then answered 204.
func TestLeaseHoldAnswersNoContent(t *testing.T) {
	c := NewCoordinator(time.Minute, nil)
	c.hold = 50 * time.Millisecond
	srv, _ := longPollServer(t, c)
	start := time.Now()
	a := <-postLease(context.Background(), srv.URL)
	if a.err != nil || a.status != http.StatusNoContent {
		t.Fatalf("idle lease call answered HTTP %d (err %v), want 204", a.status, a.err)
	}
	if held := a.at.Sub(start); held < c.hold {
		t.Fatalf("idle lease call answered after %v, before its %v hold", held, c.hold)
	}
}

// TestLeaseReturnsOnDisconnect: a caller that hangs up during the hold
// ends the held call, leaving no handler running.
func TestLeaseReturnsOnDisconnect(t *testing.T) {
	c := NewCoordinator(time.Minute, nil)
	srv, active := longPollServer(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	answer := postLease(ctx, srv.URL)
	waitFor(t, "the lease call to park", func() bool { return c.Stats().Waiting == 1 })
	cancel()
	if a := <-answer; a.err == nil {
		t.Fatalf("cancelled lease call answered HTTP %d", a.status)
	}
	waitFor(t, "the lease handler to return", func() bool { return active.Load() == 0 && c.Stats().Waiting == 0 })
}

// TestLeaseRefusedAfterClose: Close releases a held call and refuses the
// next one, both with 503.
func TestLeaseRefusedAfterClose(t *testing.T) {
	c := NewCoordinator(time.Minute, nil)
	srv, _ := longPollServer(t, c)
	answer := postLease(context.Background(), srv.URL)
	waitFor(t, "the lease call to park", func() bool { return c.Stats().Waiting == 1 })
	c.Close()
	if a := <-answer; a.err != nil || a.status != http.StatusServiceUnavailable {
		t.Fatalf("held lease call answered HTTP %d (err %v) on Close, want 503", a.status, a.err)
	}
	if a := <-postLease(context.Background(), srv.URL); a.err != nil || a.status != http.StatusServiceUnavailable {
		t.Fatalf("lease call after Close answered HTTP %d (err %v), want 503", a.status, a.err)
	}
}

// TestHeldLeaseClockSample: a lease answered after a long hold still
// yields a clock-offset sample as tight as a prompt one. Worker and
// coordinator share obs.Now here, so the true offset is zero; without the
// hold taken out of the round trip the sample would be off by half of it.
func TestHeldLeaseClockSample(t *testing.T) {
	c := NewCoordinator(time.Minute, nil)
	srv, _ := longPollServer(t, c)
	w := &Worker{Base: srv.URL, Name: "w-clock"}
	type answer struct {
		lease leaseResponse
		ok    bool
		err   error
	}
	answers := make(chan answer, 1)
	go func() {
		l, ok, err := w.lease(context.Background())
		answers <- answer{l, ok, err}
	}()
	waitFor(t, "the lease call to park", func() bool { return c.Stats().Waiting == 1 })
	const held = 200 * time.Millisecond
	time.Sleep(held)
	cut := testShards(1, 128)
	c.register(&session{plan: testPlan(t, cut, nil), board: c.newBoard(cut, nil)})
	a := <-answers
	if a.err != nil || !a.ok {
		t.Fatalf("held lease call: ok=%v err=%v", a.ok, a.err)
	}
	if a.lease.HeldNs < int64(held) {
		t.Fatalf("lease held %v by the coordinator's account, want at least %v", time.Duration(a.lease.HeldNs), held)
	}
	if off := time.Duration(w.clock.Offset()); off < -held/4 || off > held/4 {
		t.Fatalf("clock offset %v from a held lease, want about 0", off)
	}
}
