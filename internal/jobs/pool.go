package jobs

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"coldboot/internal/obs"
)

// RunFunc executes one job. It must honour ctx — the analysis pipeline
// polls it every scan chunk — and should return whatever partial result it
// accumulated alongside ctx.Err() when interrupted: the pool keeps the
// result in every terminal state. Wrap retryable errors with Transient.
type RunFunc func(ctx context.Context, job *Job) (result any, err error)

// Options tunes a Pool.
type Options struct {
	// Workers is the concurrency cap: exactly this many worker goroutines
	// exist, and excess jobs wait in the queue (default 1).
	Workers int
	// JobTimeout bounds each attempt's run time (0 = no limit). A timed-out
	// job fails with context.DeadlineExceeded.
	JobTimeout time.Duration
	// MaxAttempts is the total number of runs a transiently failing job may
	// consume (default 1: no retries).
	MaxAttempts int
	// RetryBackoff is the delay before the first retry, doubling per
	// subsequent retry (default 250ms).
	RetryBackoff time.Duration
	// Clock supplies job timestamps; nil means the system clock. Tests
	// inject a fake for deterministic snapshots.
	Clock func() time.Time
	// OnJobDone, if non-nil, is called (outside the pool's lock, from the
	// worker or cancelling goroutine) each time a job reaches a terminal
	// state. The service uses it to delete spooled dump files and bump
	// metrics.
	OnJobDone func(job *Job)
	// Tracer receives pool latency telemetry: "jobs.queue_wait_ns" (submit
	// to first run) and "jobs.run_ns" (wall time of the attempt that
	// reached a terminal state) histogram samples. Nil means no telemetry
	// (obs.Nop).
	Tracer obs.Tracer
	// Journal, if non-nil, makes the store durable: every lifecycle
	// mutation is recorded through it BEFORE it applies. A Record error at
	// Submit fails the submit (nothing runs that the journal cannot
	// replay); errors on later transitions are counted in
	// Stats.JournalErrors — the in-memory state machine proceeds, the
	// journal has merely fallen behind reality.
	Journal Journal
	// EncodePayload serializes a job payload into the journal's submit
	// event (nil leaves payloads out — such jobs cannot be restored).
	EncodePayload func(payload any) ([]byte, error)
	// EncodeResult serializes a result into terminal events. The service
	// encoder redacts key material to fingerprints unless the job opted
	// into reveal at submit.
	EncodeResult func(result any) ([]byte, error)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 1
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 250 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	o.Tracer = obs.OrNop(o.Tracer)
	return o
}

// Pool schedules jobs onto a fixed set of workers. Create with NewPool;
// all methods are safe for concurrent use.
type Pool struct {
	run  RunFunc
	opts Options

	mu        sync.Mutex
	cond      *sync.Cond
	queue     jobHeap         // guarded by mu
	jobs      map[string]*Job // guarded by mu
	order     []string        // submission order, for List; guarded by mu
	seq       uint64          // guarded by mu
	counts    map[State]int   // guarded by mu
	draining  bool            // guarded by mu
	abandoned int             // queued jobs left behind by Drain; guarded by mu
	jErrors   int             // post-submit journal Record failures; guarded by mu
	workers   sync.WaitGroup
}

// NewPool starts opts.Workers worker goroutines and returns the ready
// pool. Callers must eventually Drain it to stop the workers.
func NewPool(run RunFunc, opts Options) *Pool {
	p := &Pool{
		run:    run,
		opts:   opts.withDefaults(),
		jobs:   make(map[string]*Job),
		counts: make(map[State]int),
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < p.opts.Workers; i++ {
		p.workers.Add(1)
		go p.worker()
	}
	return p
}

// Submit enqueues a new job and returns its initial snapshot. Higher
// priority runs first; equal priorities run in submission order (FIFO).
// With a Journal configured, the submit event is durable before the job
// becomes runnable; a journal error fails the submit.
func (p *Pool) Submit(payload any, priority int) (Snapshot, error) {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		return Snapshot{}, ErrDraining
	}
	p.seq++
	j := &Job{
		id:        newID(p.seq),
		priority:  priority,
		seq:       p.seq,
		payload:   payload,
		state:     StateQueued,
		submitted: p.opts.Clock(),
		heapIndex: -1,
	}
	if p.opts.Journal != nil {
		e := Event{Op: OpSubmit, ID: j.id, Priority: priority, Time: j.submitted.Format(time.RFC3339Nano)}
		if p.opts.EncodePayload != nil {
			enc, err := p.opts.EncodePayload(payload)
			if err != nil {
				p.mu.Unlock()
				return Snapshot{}, fmt.Errorf("jobs: encoding payload for journal: %w", err)
			}
			e.Payload = enc
		}
		if err := p.opts.Journal.Record(e); err != nil {
			p.mu.Unlock()
			return Snapshot{}, fmt.Errorf("jobs: journaling submit: %w", err)
		}
	}
	p.jobs[j.id] = j
	p.order = append(p.order, j.id)
	p.counts[StateQueued]++
	heap.Push(&p.queue, j)
	p.cond.Signal()
	snap := p.snapshotLocked(j)
	p.mu.Unlock()
	return snap, nil
}

// Restore re-inserts jobs recovered from a replayed journal into a fresh
// pool: interrupted jobs (State queued) go back on the queue and run
// again, terminal jobs re-enter the bookkeeping so their records stay
// queryable across the restart. Restore does not journal — the restored
// state is, by definition, already in the journal. It must be called
// before any Submit traffic (normally right after NewPool).
func (p *Pool) Restore(restored []Restored) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range restored {
		if r.ID == "" {
			return fmt.Errorf("jobs: restoring job with empty ID")
		}
		if _, exists := p.jobs[r.ID]; exists {
			return fmt.Errorf("jobs: restoring duplicate job %s", r.ID)
		}
		if r.State != StateQueued && !r.State.Terminal() {
			return fmt.Errorf("jobs: restoring job %s in non-restorable state %s", r.ID, r.State)
		}
		p.seq++
		j := &Job{
			id:        r.ID,
			priority:  r.Priority,
			seq:       p.seq,
			payload:   r.Payload,
			state:     r.State,
			attempts:  r.Attempts,
			errText:   r.Error,
			result:    r.Result,
			submitted: p.opts.Clock(),
			heapIndex: -1,
		}
		p.jobs[j.id] = j
		p.order = append(p.order, j.id)
		p.counts[j.state]++
		if j.state == StateQueued {
			heap.Push(&p.queue, j)
			p.cond.Signal()
		}
	}
	return nil
}

// record journals a lifecycle event (pool mutex held). Failures after
// submit are counted, not fatal: the scheduler's in-memory truth moves
// on and the next snapshot heals the journal.
func (p *Pool) record(e Event) {
	if p.opts.Journal == nil {
		return
	}
	e.Time = p.opts.Clock().Format(time.RFC3339Nano)
	if err := p.opts.Journal.Record(e); err != nil {
		p.jErrors++
	}
}

// terminalEvent builds the journal event for a job reaching state s.
func (p *Pool) terminalEvent(j *Job, s State) Event {
	e := Event{ID: j.id, Attempts: j.attempts, Error: j.errText}
	switch s {
	case StateDone:
		e.Op = OpDone
	case StateFailed:
		e.Op = OpFailed
	default:
		e.Op = OpCanceled
	}
	if j.result != nil && p.opts.EncodeResult != nil {
		if enc, err := p.opts.EncodeResult(j.result); err == nil {
			e.Result = enc
		}
	}
	return e
}

// Get returns a snapshot of the job with the given ID.
func (p *Pool) Get(id string) (Snapshot, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return p.snapshotLocked(j), true
}

// List returns snapshots of every job ever submitted, in submission order.
func (p *Pool) List() []Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Snapshot, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.snapshotLocked(p.jobs[id]))
	}
	return out
}

// Stats returns the pool's aggregate gauges.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Workers:       p.opts.Workers,
		Queued:        p.counts[StateQueued],
		Running:       p.counts[StateRunning],
		Done:          p.counts[StateDone],
		Failed:        p.counts[StateFailed],
		Canceled:      p.counts[StateCanceled],
		Draining:      p.draining,
		Abandoned:     p.abandoned,
		JournalErrors: p.jErrors,
	}
}

// Cancel cancels the job with the given ID. A queued job (including one
// waiting out a retry backoff) is marked canceled immediately; a running
// job has its context cancelled and reaches the canceled state as soon as
// the RunFunc returns — the analysis pipeline polls every scan chunk, so
// within one chunk of work. The returned snapshot reflects the state at
// return time (a running job may still read "running").
func (p *Pool) Cancel(id string) (Snapshot, error) {
	p.mu.Lock()
	j, ok := p.jobs[id]
	if !ok {
		p.mu.Unlock()
		return Snapshot{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		if j.retryTimer != nil {
			j.retryTimer.Stop()
			j.retryTimer = nil
		}
		j.errText = "canceled before start"
		p.record(p.terminalEvent(j, StateCanceled))
		p.setStateLocked(j, StateCanceled)
		j.finished = p.opts.Clock()
		snap := p.snapshotLocked(j)
		hook := p.opts.OnJobDone
		p.mu.Unlock()
		if hook != nil {
			hook(j)
		}
		return snap, nil
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
		snap := p.snapshotLocked(j)
		p.mu.Unlock()
		return snap, nil
	default:
		snap := p.snapshotLocked(j)
		p.mu.Unlock()
		return snap, ErrFinished
	}
}

// Remove deletes a terminal job from the pool's bookkeeping and returns
// its final snapshot (including the result, so the caller can dispose of
// sensitive artifacts). Queued or running jobs return ErrActive — cancel
// first, then remove.
func (p *Pool) Remove(id string) (Snapshot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	if !j.state.Terminal() {
		return p.snapshotLocked(j), ErrActive
	}
	snap := p.snapshotLocked(j)
	p.record(Event{Op: OpPurged, ID: id})
	delete(p.jobs, id)
	p.counts[j.state]--
	for i, jid := range p.order {
		if jid == id {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	return snap, nil
}

// Drain begins a graceful shutdown: Submit starts failing with
// ErrDraining, idle workers exit, and workers busy with a job finish it
// first — running jobs are never interrupted. Queued jobs are NOT
// silently dropped: each is counted in Stats.Abandoned and, with a
// Journal configured, marked requeueable (OpAbandoned) so the next boot's
// replay restores it to the queue. Drain returns when every worker has
// exited, or with ctx.Err() if ctx expires first.
func (p *Pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	if !p.draining {
		p.draining = true
		for _, id := range p.order {
			j := p.jobs[id]
			if j.state != StateQueued {
				continue
			}
			if j.retryTimer != nil {
				j.retryTimer.Stop()
				j.retryTimer = nil
			}
			p.abandoned++
			p.record(Event{Op: OpAbandoned, ID: j.id, Attempts: j.attempts})
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		p.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker is one pool goroutine: pop the best queued job, run it under its
// own context, apply the outcome, repeat until drained.
func (p *Pool) worker() {
	defer p.workers.Done()
	for {
		p.mu.Lock()
		for p.queue.Len() == 0 && !p.draining {
			p.cond.Wait()
		}
		if p.draining {
			p.mu.Unlock()
			return
		}
		j := heap.Pop(&p.queue).(*Job)
		if j.state != StateQueued {
			// Canceled while queued; its terminal bookkeeping already ran.
			p.mu.Unlock()
			continue
		}
		p.record(Event{Op: OpStart, ID: j.id, Attempts: j.attempts + 1})
		p.setStateLocked(j, StateRunning)
		j.attempts++
		j.started = p.opts.Clock()
		if j.attempts == 1 {
			p.opts.Tracer.Observe("jobs.queue_wait_ns", j.started.Sub(j.submitted).Nanoseconds())
		}
		ctx, cancel := context.WithCancel(context.Background())
		if p.opts.JobTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, p.opts.JobTimeout)
		}
		j.cancel = cancel
		p.mu.Unlock()

		result, err := p.invoke(ctx, j)
		cancel()
		p.finish(j, result, err)
	}
}

// invoke runs the RunFunc with panic containment: a panicking job fails
// (permanently) instead of killing its worker.
func (p *Pool) invoke(ctx context.Context, j *Job) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, fmt.Errorf("jobs: job %s panicked: %v", j.id, r)
		}
	}()
	return p.run(ctx, j)
}

// finish applies one attempt's outcome: done, canceled, retry-after-
// backoff, or failed.
func (p *Pool) finish(j *Job, result any, err error) {
	now := p.opts.Clock()
	p.mu.Lock()
	j.cancel = nil
	if result != nil {
		// Keep partial results: a canceled or failed campaign still reports
		// the keys it found before the interruption.
		j.result = result
	}
	terminal := true
	switch {
	case err == nil:
		j.errText = ""
		p.record(p.terminalEvent(j, StateDone))
		p.setStateLocked(j, StateDone)
	case isCanceled(err, j):
		j.errText = err.Error()
		p.record(p.terminalEvent(j, StateCanceled))
		p.setStateLocked(j, StateCanceled)
	case IsTransient(err) && j.attempts < p.opts.MaxAttempts && !p.draining:
		j.errText = err.Error()
		p.record(Event{Op: OpRequeued, ID: j.id, Attempts: j.attempts, Error: j.errText})
		p.setStateLocked(j, StateQueued)
		terminal = false
		delay := p.opts.RetryBackoff << (j.attempts - 1)
		j.retryTimer = time.AfterFunc(delay, func() { p.requeue(j) })
	default:
		j.errText = err.Error()
		p.record(p.terminalEvent(j, StateFailed))
		p.setStateLocked(j, StateFailed)
	}
	if terminal {
		j.finished = now
		if !j.started.IsZero() {
			p.opts.Tracer.Observe("jobs.run_ns", now.Sub(j.started).Nanoseconds())
		}
	}
	hook := p.opts.OnJobDone
	p.mu.Unlock()
	if terminal && hook != nil {
		hook(j)
	}
}

// requeue returns a backoff-delayed job to the queue (timer callback).
func (p *Pool) requeue(j *Job) {
	p.mu.Lock()
	j.retryTimer = nil
	if j.state == StateQueued && j.heapIndex == -1 && !p.draining {
		heap.Push(&p.queue, j)
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// setStateLocked moves j to state s, keeping the per-state counts in sync.
func (p *Pool) setStateLocked(j *Job, s State) {
	p.counts[j.state]--
	j.state = s
	p.counts[s]++
}

// snapshotLocked copies j's observable state (pool mutex held).
func (p *Pool) snapshotLocked(j *Job) Snapshot {
	snap := Snapshot{
		ID:       j.id,
		State:    j.state,
		Priority: j.priority,
		Attempts: j.attempts,
		Error:    j.errText,
		Result:   j.result,
	}
	if !j.submitted.IsZero() {
		snap.SubmittedAt = j.submitted.Format(time.RFC3339Nano)
	}
	if !j.started.IsZero() {
		snap.StartedAt = j.started.Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		snap.FinishedAt = j.finished.Format(time.RFC3339Nano)
	}
	return snap
}

// isCanceled reports whether an attempt ended because of an operator
// cancellation: either the Cancel path flagged the job, or the RunFunc
// surfaced context.Canceled on its own.
func isCanceled(err error, j *Job) bool {
	return j.cancelRequested || errors.Is(err, context.Canceled)
}

// jobHeap orders queued jobs by descending priority, then ascending
// submission sequence (FIFO within a priority band).
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }

func (h jobHeap) Less(i, k int) bool {
	if h[i].priority != h[k].priority {
		return h[i].priority > h[k].priority
	}
	return h[i].seq < h[k].seq
}

func (h jobHeap) Swap(i, k int) {
	h[i], h[k] = h[k], h[i]
	h[i].heapIndex = i
	h[k].heapIndex = k
}

func (h *jobHeap) Push(x any) {
	j := x.(*Job)
	j.heapIndex = len(*h)
	*h = append(*h, j)
}

func (h *jobHeap) Pop() any {
	old := *h
	j := old[len(old)-1]
	old[len(old)-1] = nil
	j.heapIndex = -1
	*h = old[:len(old)-1]
	return j
}
