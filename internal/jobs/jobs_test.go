package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, p *Pool, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap, ok := p.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if snap.State == want {
			return snap
		}
		time.Sleep(time.Millisecond)
	}
	snap, _ := p.Get(id)
	t.Fatalf("job %s stuck in %s, want %s", id, snap.State, want)
	return Snapshot{}
}

func drain(t *testing.T, p *Pool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestPriorityAndFIFOOrder: with one worker pinned on a plug job, later
// submissions run highest-priority first and FIFO within a priority band.
func TestPriorityAndFIFOOrder(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var ran []string
	p := NewPool(func(ctx context.Context, j *Job) (any, error) {
		if j.Payload() == "plug" {
			<-release
			return nil, nil
		}
		mu.Lock()
		ran = append(ran, j.Payload().(string))
		mu.Unlock()
		return nil, nil
	}, Options{Workers: 1})

	plug, err := p.Submit("plug", 100)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, plug.ID, StateRunning)
	for _, s := range []struct {
		name string
		pri  int
	}{{"a0", 0}, {"b5", 5}, {"c5", 5}, {"d0", 0}, {"e9", 9}} {
		if _, err := p.Submit(s.name, s.pri); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	waitState(t, p, plug.ID, StateDone)
	// Wait for the queue to empty.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Done != 6 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	got := strings.Join(ran, ",")
	mu.Unlock()
	if got != "e9,b5,c5,a0,d0" {
		t.Fatalf("execution order %q, want e9,b5,c5,a0,d0", got)
	}
	drain(t, p)
}

// TestTransientRetryWithBackoff: a job that fails transiently twice
// succeeds on its third attempt.
func TestTransientRetryWithBackoff(t *testing.T) {
	var runs atomic.Int32
	p := NewPool(func(ctx context.Context, j *Job) (any, error) {
		if runs.Add(1) < 3 {
			return nil, Transient(errors.New("flaky storage"))
		}
		return "ok", nil
	}, Options{Workers: 1, MaxAttempts: 5, RetryBackoff: time.Millisecond})
	snap, err := p.Submit(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, p, snap.ID, StateDone)
	if final.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", final.Attempts)
	}
	if final.Result != "ok" {
		t.Errorf("result = %v, want ok", final.Result)
	}
	if final.Error != "" {
		t.Errorf("done job still carries error %q", final.Error)
	}
	drain(t, p)
}

// TestTransientExhaustsAttempts: a persistently transient failure lands in
// failed after MaxAttempts runs.
func TestTransientExhaustsAttempts(t *testing.T) {
	p := NewPool(func(ctx context.Context, j *Job) (any, error) {
		return nil, Transient(errors.New("still flaky"))
	}, Options{Workers: 1, MaxAttempts: 2, RetryBackoff: time.Millisecond})
	snap, _ := p.Submit(nil, 0)
	final := waitState(t, p, snap.ID, StateFailed)
	if final.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", final.Attempts)
	}
	if !strings.Contains(final.Error, "still flaky") {
		t.Errorf("error = %q", final.Error)
	}
	drain(t, p)
}

// TestPermanentFailureDoesNotRetry: a non-transient error is terminal on
// the first attempt even with retries configured.
func TestPermanentFailureDoesNotRetry(t *testing.T) {
	var runs atomic.Int32
	p := NewPool(func(ctx context.Context, j *Job) (any, error) {
		runs.Add(1)
		return nil, errors.New("bad container")
	}, Options{Workers: 1, MaxAttempts: 5, RetryBackoff: time.Millisecond})
	snap, _ := p.Submit(nil, 0)
	final := waitState(t, p, snap.ID, StateFailed)
	if final.Attempts != 1 || runs.Load() != 1 {
		t.Errorf("attempts = %d (runs %d), want 1", final.Attempts, runs.Load())
	}
	drain(t, p)
}

// TestPanicFailsJob: a panicking RunFunc fails the job and the worker
// survives to run the next one.
func TestPanicFailsJob(t *testing.T) {
	p := NewPool(func(ctx context.Context, j *Job) (any, error) {
		if j.Payload() == "boom" {
			panic("kaboom")
		}
		return "fine", nil
	}, Options{Workers: 1})
	bad, _ := p.Submit("boom", 0)
	good, _ := p.Submit("calm", 0)
	final := waitState(t, p, bad.ID, StateFailed)
	if !strings.Contains(final.Error, "kaboom") {
		t.Errorf("error = %q, want panic message", final.Error)
	}
	if got := waitState(t, p, good.ID, StateDone); got.Result != "fine" {
		t.Errorf("next job result = %v", got.Result)
	}
	drain(t, p)
}

// TestCancelQueuedJobNeverRuns: cancelling a queued job prevents it from
// ever reaching the RunFunc.
func TestCancelQueuedJobNeverRuns(t *testing.T) {
	release := make(chan struct{})
	var sawVictim atomic.Bool
	p := NewPool(func(ctx context.Context, j *Job) (any, error) {
		if j.Payload() == "victim" {
			sawVictim.Store(true)
		}
		<-release
		return nil, nil
	}, Options{Workers: 1})
	plug, _ := p.Submit("plug", 0)
	waitState(t, p, plug.ID, StateRunning)
	victim, _ := p.Submit("victim", 0)
	snap, err := p.Cancel(victim.ID)
	if err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if snap.State != StateCanceled {
		t.Fatalf("state after cancel = %s", snap.State)
	}
	close(release)
	waitState(t, p, plug.ID, StateDone)
	drain(t, p)
	if sawVictim.Load() {
		t.Error("canceled job still ran")
	}
	// Cancelling a finished job reports ErrFinished.
	if _, err := p.Cancel(victim.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("second cancel: %v, want ErrFinished", err)
	}
	if _, err := p.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown cancel: %v, want ErrNotFound", err)
	}
}

// TestCancelRunningKeepsPartialResult: a running job's context is
// cancelled, and the partial result it returns alongside ctx.Err() is kept
// on the canceled snapshot.
func TestCancelRunningKeepsPartialResult(t *testing.T) {
	started := make(chan struct{})
	p := NewPool(func(ctx context.Context, j *Job) (any, error) {
		close(started)
		<-ctx.Done()
		return "partial", ctx.Err()
	}, Options{Workers: 1})
	snap, _ := p.Submit(nil, 0)
	<-started
	if _, err := p.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, p, snap.ID, StateCanceled)
	if final.Result != "partial" {
		t.Errorf("partial result lost: %v", final.Result)
	}
	if final.FinishedAt == "" {
		t.Error("canceled job has no finish timestamp")
	}
	drain(t, p)
}

// TestJobTimeoutFails: the per-job budget expires the attempt with a
// deadline error (failed, not canceled).
func TestJobTimeoutFails(t *testing.T) {
	p := NewPool(func(ctx context.Context, j *Job) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, Options{Workers: 1, JobTimeout: 5 * time.Millisecond})
	snap, _ := p.Submit(nil, 0)
	final := waitState(t, p, snap.ID, StateFailed)
	if !strings.Contains(final.Error, "deadline") {
		t.Errorf("error = %q, want deadline", final.Error)
	}
	drain(t, p)
}

// TestWorkerCapHoldsQueueDepth: jobs beyond the worker cap stay queued —
// the pool never grows extra runners.
func TestWorkerCapHoldsQueueDepth(t *testing.T) {
	release := make(chan struct{})
	var running, peak atomic.Int32
	p := NewPool(func(ctx context.Context, j *Job) (any, error) {
		n := running.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		defer running.Add(-1)
		<-release
		return nil, nil
	}, Options{Workers: 2})
	var ids []string
	for i := 0; i < 6; i++ {
		snap, err := p.Submit(i, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := p.Stats()
		if st.Running == 2 && st.Queued == 4 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st := p.Stats(); st.Running != 2 || st.Queued != 4 {
		t.Fatalf("stats = %+v, want 2 running / 4 queued", st)
	}
	close(release)
	for _, id := range ids {
		waitState(t, p, id, StateDone)
	}
	if peak.Load() > 2 {
		t.Errorf("concurrency peak %d exceeded worker cap 2", peak.Load())
	}
	drain(t, p)
}

// TestDrainFinishesRunningAbandonsQueued: Drain waits for the running job,
// leaves queued jobs queued, and Submit afterwards fails.
func TestDrainFinishesRunningAbandonsQueued(t *testing.T) {
	release := make(chan struct{})
	p := NewPool(func(ctx context.Context, j *Job) (any, error) {
		<-release
		return "finished", nil
	}, Options{Workers: 1})
	first, _ := p.Submit("run", 0)
	waitState(t, p, first.ID, StateRunning)
	second, _ := p.Submit("wait", 0)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- p.Drain(ctx)
	}()
	// Drain must not interrupt the running job.
	time.Sleep(20 * time.Millisecond)
	if snap, _ := p.Get(first.ID); snap.State != StateRunning {
		t.Fatalf("running job state during drain = %s", snap.State)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if snap, _ := p.Get(first.ID); snap.State != StateDone {
		t.Errorf("running job after drain = %s, want done", snap.State)
	}
	if snap, _ := p.Get(second.ID); snap.State != StateQueued {
		t.Errorf("queued job after drain = %s, want queued (abandoned)", snap.State)
	}
	if _, err := p.Submit("late", 0); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: %v, want ErrDraining", err)
	}
	if !p.Stats().Draining {
		t.Error("stats do not report draining")
	}
}

// TestDrainTimeout: a Drain whose context expires while a job is still
// running returns the context error.
func TestDrainTimeout(t *testing.T) {
	release := make(chan struct{})
	p := NewPool(func(ctx context.Context, j *Job) (any, error) {
		<-release
		return nil, nil
	}, Options{Workers: 1})
	snap, _ := p.Submit(nil, 0)
	waitState(t, p, snap.ID, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("drain: %v, want deadline exceeded", err)
	}
	close(release)
	drain(t, p)
}

// TestSnapshotTimestampsUseInjectedClock: timestamps come from the
// injected clock, in submit→start→finish order.
func TestSnapshotTimestampsUseInjectedClock(t *testing.T) {
	var mu sync.Mutex
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(time.Second)
		return now
	}
	p := NewPool(func(ctx context.Context, j *Job) (any, error) {
		return nil, nil
	}, Options{Workers: 1, Clock: clock})
	snap, _ := p.Submit(nil, 0)
	final := waitState(t, p, snap.ID, StateDone)
	sub, _ := time.Parse(time.RFC3339Nano, final.SubmittedAt)
	start, _ := time.Parse(time.RFC3339Nano, final.StartedAt)
	fin, _ := time.Parse(time.RFC3339Nano, final.FinishedAt)
	if !sub.Before(start) || !start.Before(fin) {
		t.Errorf("timestamps out of order: %v %v %v", sub, start, fin)
	}
	drain(t, p)
}

// TestOnJobDoneHook: the terminal hook fires exactly once per job, for
// every terminal path.
func TestOnJobDoneHook(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[string]int)
	var pool *Pool
	release := make(chan struct{})
	pool = NewPool(func(ctx context.Context, j *Job) (any, error) {
		switch j.Payload() {
		case "ok":
			return nil, nil
		case "fail":
			return nil, errors.New("nope")
		default:
			<-release
			return nil, nil
		}
	}, Options{Workers: 1, OnJobDone: func(j *Job) {
		mu.Lock()
		seen[j.ID()]++
		mu.Unlock()
	}})
	plug, _ := pool.Submit("plug", 9)
	waitState(t, pool, plug.ID, StateRunning)
	ok, _ := pool.Submit("ok", 0)
	fail, _ := pool.Submit("fail", 0)
	canceled, _ := pool.Submit("never", 0)
	if _, err := pool.Cancel(canceled.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitState(t, pool, ok.ID, StateDone)
	waitState(t, pool, fail.ID, StateFailed)
	waitState(t, pool, canceled.ID, StateCanceled)
	drain(t, pool)
	mu.Lock()
	defer mu.Unlock()
	for _, id := range []string{plug.ID, ok.ID, fail.ID, canceled.ID} {
		if seen[id] != 1 {
			t.Errorf("hook fired %d times for %s, want 1", seen[id], id)
		}
	}
}

// TestListOrderAndStats: List returns submission order; Stats counts
// states.
func TestListOrderAndStats(t *testing.T) {
	p := NewPool(func(ctx context.Context, j *Job) (any, error) {
		return nil, nil
	}, Options{Workers: 1})
	var ids []string
	for i := 0; i < 4; i++ {
		snap, _ := p.Submit(i, i) // varied priorities must not affect List order
		ids = append(ids, snap.ID)
	}
	for _, id := range ids {
		waitState(t, p, id, StateDone)
	}
	list := p.List()
	if len(list) != 4 {
		t.Fatalf("list has %d jobs", len(list))
	}
	for i, snap := range list {
		if snap.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s", i, snap.ID, ids[i])
		}
	}
	if st := p.Stats(); st.Done != 4 || st.Queued != 0 || st.Running != 0 {
		t.Errorf("stats = %+v", st)
	}
	drain(t, p)
}

// TestTransientHelpers pins the error-classification contract.
func TestTransientHelpers(t *testing.T) {
	if Transient(nil) != nil {
		t.Error("Transient(nil) must be nil")
	}
	base := errors.New("io hiccup")
	wrapped := Transient(base)
	if !IsTransient(wrapped) || !errors.Is(wrapped, base) {
		t.Error("transient wrapper loses identity")
	}
	if IsTransient(base) || IsTransient(fmt.Errorf("other: %w", base)) {
		t.Error("unmarked errors must not be transient")
	}
	if !IsTransient(fmt.Errorf("outer: %w", wrapped)) {
		t.Error("transient mark must survive further wrapping")
	}
}

// TestPoolRaceHammer drives every pool API from many goroutines at once;
// meaningful under -race (make race).
func TestPoolRaceHammer(t *testing.T) {
	p := NewPool(func(ctx context.Context, j *Job) (any, error) {
		switch j.Payload().(int) % 3 {
		case 0:
			return "ok", nil
		case 1:
			return nil, Transient(errors.New("flaky"))
		default:
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
				return nil, errors.New("hard")
			}
		}
	}, Options{Workers: 4, MaxAttempts: 2, RetryBackoff: time.Microsecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var mine []string
			for i := 0; i < 50; i++ {
				snap, err := p.Submit(g*100+i, rng.Intn(3))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mine = append(mine, snap.ID)
				if i%5 == 0 {
					p.Cancel(mine[rng.Intn(len(mine))])
				}
				if i%7 == 0 {
					p.List()
					p.Stats()
				}
				p.Get(mine[rng.Intn(len(mine))])
			}
		}(g)
	}
	wg.Wait()
	// Every job must settle before drain completes.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		st := p.Stats()
		if st.Running == 0 && st.Queued == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	drain(t, p)
	st := p.Stats()
	if got := st.Done + st.Failed + st.Canceled + st.Queued; got != 400 {
		t.Errorf("jobs accounted = %d (stats %+v), want 400", got, st)
	}
}
