package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"coldboot/internal/core"
	"coldboot/internal/format"
	"coldboot/internal/obs"
)

// Wire DTOs shared by coordinator and worker. The shard-result body
// intentionally carries raw recovered masters: the fleet transport is the
// one sanctioned channel where key bytes leave a process, because the
// coordinator needs the real bytes to merge, dedup, and verify-tag across
// shards. Results at rest (WAL, job store) still go through
// secret.Bytes fingerprints in internal/service.

type leaseRequest struct {
	Worker string `json:"worker"`
}

type leaseResponse struct {
	Campaign string     `json:"campaign"`
	Lease    string     `json:"lease"`
	Stolen   bool       `json:"stolen,omitempty"`
	Shard    core.Shard `json:"shard"`
	// TTLNs is the lease lifetime; workers heartbeat a few times per TTL.
	TTLNs int64 `json:"ttl_ns"`
	// Trace is the campaign's trace context: the shared trace ID plus the
	// lease span's ID in the coordinator's collector, which the worker's
	// shipped span tree will be grafted under.
	Trace obs.TraceContext `json:"trace,omitempty"`
	// NowNs is the coordinator's obs.Now at response time; together with
	// the worker's send/receive timestamps it yields one NTP-style clock
	// offset sample.
	NowNs int64 `json:"now_ns"`
	// HeldNs is how long the coordinator held the call before answering;
	// the worker takes it out of the round trip, or a held call's offset
	// sample would be off by half the hold.
	HeldNs int64 `json:"held_ns,omitempty"`
}

type leaseRef struct {
	Campaign string `json:"campaign"`
	Lease    string `json:"lease"`
}

// nowResponse carries the coordinator clock back on heartbeats, so every
// round-trip refines the worker's offset estimate.
type nowResponse struct {
	NowNs int64 `json:"now_ns"`
}

type completeRequest struct {
	Campaign string          `json:"campaign"`
	Lease    string          `json:"lease"`
	Shard    core.Shard      `json:"shard"`
	Keys     []core.FoundKey `json:"keys"`
	Volumes  []format.Volume `json:"volumes"`
	Pairs    int64           `json:"pairs"`
	// ClockOffsetNs is the worker's best estimate of (coordinator obs.Now -
	// worker obs.Now), applied to shipped span timestamps at graft time.
	ClockOffsetNs int64 `json:"clock_offset_ns,omitempty"`
	// Telemetry is the lease-scoped span tree, counters, and histograms
	// from the shard scan. It grafts only when the completion is accepted,
	// so a shard that is stolen or requeued never leaves half-merged spans
	// behind.
	Telemetry obs.Telemetry `json:"telemetry"`
}

// CoordinatorStats aggregates every live campaign's board gauges plus the
// worker-liveness gauge for /metrics.
type CoordinatorStats struct {
	Campaigns    int `json:"campaigns"`
	WorkersAlive int `json:"workers_alive"`
	// Waiting counts lease calls held for work right now.
	Waiting int `json:"waiting"`
	BoardStats
}

// Coordinator owns the server side of a fleet: it plans campaigns,
// boards their shards, and serves the lease protocol. One Coordinator
// can run several campaigns concurrently (the daemon's job pool may
// overlap jobs); workers lease from whichever campaign has work.
type Coordinator struct {
	ttl    time.Duration
	tracer obs.Tracer
	// hold is how long a lease call waits for work before answering 204:
	// a quarter TTL, the expiry tick's period.
	hold time.Duration
	// timer starts the hold and straggler timers (a fake clock's in tests).
	timer func(time.Duration) (<-chan time.Time, func() bool)
	// history is every campaign's completed-shard durations: the boards
	// share it for the straggler bound.
	history obs.Histogram
	// prefix is random per coordinator process and starts every campaign
	// ID: workers cache plans by campaign ID and outlive a coordinator
	// restart, so a restarted coordinator must never reuse an ID.
	prefix string

	mu       sync.Mutex
	sessions map[string]*session
	order    []string // session IDs, oldest first: lease scan order
	seq      uint64
	workers  map[string]int64 // worker name -> last contact (obs.Now)
	// wake is closed and replaced whenever new work may be leasable (a
	// campaign registered; a board's lease expired or completion landed,
	// see Board.wake) or the coordinator closes; held lease calls take it
	// together with the session list, so no wakeup can fall between their
	// scan and their wait.
	wake    chan struct{}
	waiting int  // lease calls currently held
	closed  bool // Close was called: lease calls are refused
}

type session struct {
	id    string
	plan  *core.CampaignPlan
	wire  []byte // the core.EncodeWirePlan frame, served to workers once each
	src   core.BlockSource
	board *Board
	// col is the campaign tracer's Collector (nil when it has none): lease
	// span IDs resolve in it and accepted shard telemetry grafts into it,
	// so a fleet campaign's span tree and stage table match a local one's.
	col *obs.Collector
}

// NewCoordinator builds a coordinator. ttl is the shard lease lifetime
// (zero means 30s); tracer observes the lease boards' wait and shard
// histograms and requeue/steal counters, and traces a campaign whose
// config brings no tracer of its own. Lease and merge spans always join
// the campaign's own span tree.
func NewCoordinator(ttl time.Duration, tracer obs.Tracer) *Coordinator {
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	return &Coordinator{
		ttl:      ttl,
		tracer:   obs.OrNop(tracer),
		hold:     ttl / 4,
		timer:    startTimer,
		prefix:   obs.NewTraceID(),
		sessions: make(map[string]*session),
		workers:  make(map[string]int64),
		wake:     make(chan struct{}),
	}
}

func startTimer(d time.Duration) (<-chan time.Time, func() bool) {
	t := time.NewTimer(d)
	return t.C, t.Stop
}

// Close ends the lease protocol for shutdown: held lease calls return at
// once and new ones are refused with 503, so an HTTP server's graceful
// shutdown need not wait out a hold. Campaigns still running cannot be
// leased any more; close only after they finished or were cancelled.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		c.notifyLocked()
	}
}

// notify wakes every held lease call.
func (c *Coordinator) notify() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.notifyLocked()
}

func (c *Coordinator) notifyLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// Register mounts the fleet protocol on mux.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/shards/lease", c.handleLease)
	mux.HandleFunc("POST /v1/shards/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/shards/complete", c.handleComplete)
	mux.HandleFunc("GET /v1/shards/plan", c.handlePlan)
	mux.HandleFunc("GET /v1/shards/data", c.handleData)
}

// Run executes one campaign over the fleet: plan locally (the mining
// pass reads the dump directly), post the shards, wait for workers to
// finish them, merge. It is the distributed twin of
// core.RunCampaignSource and returns the identical Result. Cancellation
// returns the context error; shards completed so far are merged.
func (c *Coordinator) Run(ctx context.Context, src core.BlockSource, cfg core.CampaignConfig) (*core.Result, error) {
	if cfg.Attack.KeysForBlock != nil || cfg.Attack.GroundDump != nil {
		return nil, fmt.Errorf("fleet: KeysForBlock overrides and ground dumps are process-local and cannot be distributed")
	}
	if cfg.Attack.Tracer == nil {
		cfg.Attack.Tracer = c.tracer
	}
	plan, err := core.PlanCampaignSource(ctx, src, cfg)
	if plan == nil {
		return nil, err
	}
	defer plan.Close()
	if err != nil {
		return plan.Result(), err
	}
	wire, err := core.EncodeWirePlan(plan.Wire())
	if err != nil {
		return plan.Result(), fmt.Errorf("fleet: encoding wire plan: %w", err)
	}

	s := &session{
		plan:  plan,
		wire:  wire,
		src:   src,
		board: c.newBoard(plan.Shards, plan.Root()),
		col:   obs.FindCollector(cfg.Attack.Tracer),
	}
	c.register(s)
	defer c.unregister(s)

	// Tick lease expiry so a dead fleet's shards requeue (and ctx
	// cancellation is noticed) even when no worker traffic arrives.
	tick := time.NewTicker(c.ttl / 4)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			s.board.Abort()
			return plan.Result(), ctx.Err()
		case <-tick.C:
			s.board.Expire()
		case <-s.board.Done():
			results, err := s.board.Results()
			if err != nil {
				return plan.Result(), err
			}
			var (
				keys  []core.FoundKey
				vols  []format.Volume
				pairs int64
			)
			for _, sr := range results {
				keys = append(keys, sr.Keys...)
				vols = append(vols, sr.Volumes...)
				pairs += sr.Pairs
			}
			mergeSpan := plan.Root().Child("fleet.merge",
				obs.A("shards", strconv.Itoa(len(results))),
				obs.A("campaign", s.id))
			res := plan.Finalize(keys, vols, pairs)
			mergeSpan.End()
			return res, nil
		}
	}
}

// newBoard builds a campaign's lease board on the coordinator's shared
// completion history, waking held lease calls whenever the board may have
// work for them. Lock order: a board's lock, then c.mu.
func (c *Coordinator) newBoard(shards []core.Shard, parent obs.Span) *Board {
	b := NewBoard(shards, c.ttl, c.tracer, parent)
	b.history = &c.history
	b.wake = c.notify
	return b
}

// register makes a campaign leasable and wakes the held lease calls.
func (c *Coordinator) register(s *session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	s.id = c.prefix + "-" + strconv.FormatUint(c.seq, 10)
	c.sessions[s.id] = s
	c.order = append(c.order, s.id)
	c.notifyLocked()
}

// unregister retires a finished campaign.
func (c *Coordinator) unregister(s *session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.sessions, s.id)
	for i, sid := range c.order {
		if sid == s.id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// Stats aggregates board gauges across live campaigns. Workers count as
// alive when they contacted the coordinator within two lease TTLs. The
// boards' requeue, steal and straggler events are counted on the
// coordinator's tracer.
func (c *Coordinator) Stats() CoordinatorStats {
	c.mu.Lock()
	sessions := make([]*session, 0, len(c.sessions))
	for _, s := range c.sessions {
		sessions = append(sessions, s)
	}
	st := CoordinatorStats{Campaigns: len(sessions), Waiting: c.waiting}
	horizon := obs.Now() - 2*int64(c.ttl)
	for name, last := range c.workers {
		if last >= horizon {
			st.WorkersAlive++
		} else {
			delete(c.workers, name)
		}
	}
	c.mu.Unlock()
	for _, s := range sessions {
		bs := s.board.Stats()
		st.Queued += bs.Queued
		st.Leased += bs.Leased
		st.Done += bs.Done
		st.Total += bs.Total
	}
	return st
}

// session looks up a campaign and stamps the calling worker alive.
func (c *Coordinator) session(id, worker string) *session {
	c.mu.Lock()
	defer c.mu.Unlock()
	if worker != "" {
		c.workers[worker] = obs.Now()
	}
	return c.sessions[id]
}

// leaseScan returns the campaigns in registration order, stamps the
// calling worker alive, and returns the wake channel current at the scan:
// taken under the same lock as the session list, it is closed by any
// wakeup the scan could have missed.
func (c *Coordinator) leaseScan(worker string) (sessions []*session, wake <-chan struct{}, closed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if worker != "" {
		c.workers[worker] = obs.Now()
	}
	sessions = make([]*session, 0, len(c.order))
	for _, id := range c.order {
		sessions = append(sessions, c.sessions[id])
	}
	return sessions, c.wake, c.closed
}

// errClosed refuses lease calls after Close.
var errClosed = errors.New("fleet: coordinator closed")

// handleLease is a long poll: it answers a lease as soon as one is
// available, 204 when the hold elapses without work, and 503 once the
// coordinator is closed.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, "bad lease request", http.StatusBadRequest)
		return
	}
	if !validWorkerName(req.Worker) {
		http.Error(w, "bad worker name", http.StatusBadRequest)
		return
	}
	// Read the body to its end: only then does the server watch the
	// connection, and cancel the request context when the caller hangs up
	// during the hold.
	io.Copy(io.Discard, io.LimitReader(r.Body, 1<<16))
	resp, ok, err := c.awaitLease(r.Context(), req.Worker)
	switch {
	case errors.Is(err, errClosed):
		http.Error(w, "coordinator shutting down", http.StatusServiceUnavailable)
	case err != nil:
		// The caller went away; nobody reads an answer.
	case !ok:
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, resp)
	}
}

// maxWorkerName bounds a worker's name in bytes.
const maxWorkerName = 64

// validWorkerName reports whether name may identify a worker: 1 to
// maxWorkerName bytes of [A-Za-z0-9._-]. The name becomes a trace track
// and a /metrics label value, so it must not carry a label separator
// (";", "=") or a quote that would forge another series.
func validWorkerName(name string) bool {
	if name == "" || len(name) > maxWorkerName {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// awaitLease leases worker a shard from the oldest campaign that has one,
// holding the call while none does. It scans again whenever the wake
// channel fires or the first leased shard turns straggler, and gives up
// when the hold elapses (ok false, nil error), ctx ends (ctx's error) or
// the coordinator closes (errClosed).
func (c *Coordinator) awaitLease(ctx context.Context, worker string) (leaseResponse, bool, error) {
	arrived := obs.Now()
	hold, stopHold := c.timer(c.hold)
	defer stopHold()
	for {
		if err := ctx.Err(); err != nil {
			return leaseResponse{}, false, err
		}
		sessions, wake, closed := c.leaseScan(worker)
		if closed {
			return leaseResponse{}, false, errClosed
		}
		for _, s := range sessions {
			if l, ok := s.board.Lease(worker); ok {
				return c.leaseResponse(s, l, arrived), true, nil
			}
		}
		var (
			steal     <-chan time.Time
			stopSteal = func() bool { return false }
		)
		if d, ok := nextSteal(sessions); ok {
			steal, stopSteal = c.timer(d)
		}
		c.setWaiting(+1)
		elapsed := false
		select {
		case <-wake:
		case <-steal:
		case <-hold:
			elapsed = true
		case <-ctx.Done():
		}
		c.setWaiting(-1)
		stopSteal()
		if elapsed {
			return leaseResponse{}, false, nil
		}
	}
}

// nextSteal is the earliest NextSteal over the campaigns.
func nextSteal(sessions []*session) (time.Duration, bool) {
	var (
		first time.Duration
		found bool
	)
	for _, s := range sessions {
		if d, ok := s.board.NextSteal(); ok && (!found || d < first) {
			first, found = d, true
		}
	}
	return first, found
}

func (c *Coordinator) setWaiting(delta int) {
	c.mu.Lock()
	c.waiting += delta
	c.mu.Unlock()
}

// leaseResponse is the wire grant for lease l of campaign s, answering a
// call that arrived at obs.Now() == arrived.
func (c *Coordinator) leaseResponse(s *session, l Lease, arrived int64) leaseResponse {
	trace := s.plan.Trace
	if s.col != nil {
		trace.ParentSpan = s.col.SpanID(l.span)
	}
	now := obs.Now()
	return leaseResponse{
		Campaign: s.id,
		Lease:    l.ID,
		Stolen:   l.Stolen,
		Shard:    l.Shard,
		TTLNs:    int64(c.ttl),
		Trace:    trace,
		NowNs:    now,
		HeldNs:   now - arrived,
	}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var ref leaseRef
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&ref); err != nil {
		http.Error(w, "bad heartbeat", http.StatusBadRequest)
		return
	}
	s := c.session(ref.Campaign, "")
	if s == nil || !s.board.Heartbeat(ref.Lease) {
		http.Error(w, "lease gone", http.StatusGone)
		return
	}
	writeJSON(w, nowResponse{NowNs: obs.Now()})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 256<<20)).Decode(&req); err != nil {
		http.Error(w, "bad completion", http.StatusBadRequest)
		return
	}
	s := c.session(req.Campaign, "")
	if s == nil {
		http.Error(w, "no such campaign", http.StatusGone)
		return
	}
	res := core.ShardResult{Shard: req.Shard, Keys: req.Keys, Volumes: req.Volumes, Pairs: req.Pairs}
	if err := errors.Join(s.plan.CheckShardResult(res), req.Telemetry.Check()); err != nil {
		// Nothing of a malformed completion is booked; its lease expires
		// and the shard goes to a healthy worker.
		http.Error(w, "bad completion: "+err.Error(), http.StatusBadRequest)
		return
	}
	// The accepted shard's progress and telemetry are booked inside the
	// board's settle step, so Run cannot see the campaign finished — and
	// the job cannot fold its collector — before the last shard's share
	// has landed.
	_, accepted := s.board.Complete(req.Lease, res, func(info CompleteInfo) {
		s.plan.ShardDone(req.Shard.Index)
		s.graftTelemetry(&req, info)
	})
	// A dropped duplicate (stolen-shard loser, expired lease) is a normal
	// outcome, not a client error; the worker just moves on.
	writeJSON(w, struct {
		Accepted bool `json:"accepted"`
	}{accepted})
}

// graftTelemetry merges one accepted shard's shipped telemetry into the
// campaign's collector: the span tree grafts under the winning lease
// span (clock-corrected, floored at the grant time so the merged tree
// stays monotonic under any worker skew), and each shipped histogram also
// folds into a per-worker labelled series for /metrics. Both are labelled
// with the worker the lease was granted to — a name handleLease checked —
// never with one the completion body claims. Only the winning completion
// reaches here, so a stolen shard's timeline shows exactly one worker's
// spans.
func (s *session) graftTelemetry(req *completeRequest, info CompleteInfo) {
	col := s.col
	if col == nil {
		return
	}
	parent, root := col.SpanContext(info.Span)
	col.Graft(req.Telemetry, obs.GraftOptions{
		Parent:   parent,
		Root:     root,
		Track:    info.Worker,
		OffsetNs: req.ClockOffsetNs,
		MinNs:    info.GrantedNs,
	})
	// Per-worker breakdown alongside the fleet-wide aggregate Graft
	// already merged.
	for _, h := range req.Telemetry.Histograms {
		col.MergeHistogram(h.Name+";worker="+info.Worker, h)
	}
}

func (c *Coordinator) handlePlan(w http.ResponseWriter, r *http.Request) {
	s := c.session(r.URL.Query().Get("campaign"), "")
	if s == nil {
		http.Error(w, "no such campaign", http.StatusGone)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(s.wire)
}

// handleData streams one leased shard's raw bytes to its worker: the
// caller names its lease, and only that live lease's exact shard range is
// served (410 otherwise, like every other call on a dead lease).
func (c *Coordinator) handleData(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id := q.Get("campaign")
	s := c.session(id, "")
	if s == nil || s.finished() {
		http.Error(w, "no such campaign", http.StatusGone)
		return
	}
	first, err1 := strconv.Atoi(q.Get("first_block"))
	blocks, err2 := strconv.Atoi(q.Get("blocks"))
	if err1 != nil || err2 != nil || first < 0 || blocks <= 0 || blocks > s.plan.TotalBlocks-first {
		http.Error(w, "bad shard range", http.StatusBadRequest)
		return
	}
	if sh, ok := s.board.LeaseAlive(q.Get("lease")); !ok || sh.FirstBlock != first || sh.Blocks != blocks {
		http.Error(w, "lease gone", http.StatusGone)
		return
	}
	buf := make([]byte, blocks*core.BlockBytes)
	if err := s.src.ReadBlocks(first, buf); err != nil {
		// A campaign that finishes during the read closes its source
		// under it: the shard is gone, as for every other lease call.
		if c.session(id, "") == nil || s.finished() {
			http.Error(w, "no such campaign", http.StatusGone)
			return
		}
		http.Error(w, "reading shard", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.Write(buf)
}

// finished reports whether every shard of the campaign has completed.
func (s *session) finished() bool {
	select {
	case <-s.board.Done():
		return true
	default:
		return false
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
