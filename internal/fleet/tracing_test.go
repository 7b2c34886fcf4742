package fleet

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coldboot/internal/core"
	"coldboot/internal/obs"
)

// Deterministic distributed-tracing tests: these drive the coordinator's
// HTTP handlers directly against a hand-built session, so worker clock
// skew, stolen-shard races, and late completions are exact rather than
// timing-dependent.

// tracingHarness is one campaign session on a coordinator whose
// collector journals its events, as a coldbootd job's does.
type tracingHarness struct {
	coord *Coordinator
	sess  *session
	col   *obs.Collector
}

func newTracingHarness(t *testing.T, shards int) *tracingHarness {
	t.Helper()
	col := obs.NewJournaledCollector(1 << 12)
	c := NewCoordinator(time.Minute, col)
	root := col.StartSpan("campaign")
	t.Cleanup(root.End)
	s := &session{
		id:    "c1",
		plan:  testPlan(t, testShards(shards, 128), nil),
		board: NewBoard(testShards(shards, 128), time.Minute, col, root),
		col:   col,
	}
	c.mu.Lock()
	c.sessions[s.id] = s
	c.order = append(c.order, s.id)
	c.mu.Unlock()
	return &tracingHarness{coord: c, sess: s, col: col}
}

// testPlan is a scan-less campaign plan over a shard cut, reporting its
// progress to tracer (nil: untraced): enough for the coordinator's
// completion path, which advances the campaign's progress.
func testPlan(t *testing.T, shards []core.Shard, tracer obs.Tracer) *core.CampaignPlan {
	t.Helper()
	last := shards[len(shards)-1]
	p, err := core.PlanFromWire(&core.WirePlan{Mine: &core.MineResult{}, TotalBlocks: last.FirstBlock + last.Blocks}, tracer)
	if err != nil {
		t.Fatal(err)
	}
	p.Shards = shards
	t.Cleanup(p.Close)
	return p
}

func (h *tracingHarness) complete(t *testing.T, req completeRequest) (accepted bool, status int) {
	t.Helper()
	body, _ := json.Marshal(req)
	return h.post(body)
}

// post sends one raw completion body to the coordinator's handler.
func (h *tracingHarness) post(body []byte) (accepted bool, status int) {
	wr := httptest.NewRecorder()
	h.coord.handleComplete(wr, httptest.NewRequest("POST", "/v1/shards/complete", bytes.NewReader(body)))
	var out struct {
		Accepted bool `json:"accepted"`
	}
	if wr.Code == 200 {
		json.NewDecoder(wr.Body).Decode(&out)
	}
	return out.Accepted, wr.Code
}

// workerTelemetry builds a realistic lease-scoped telemetry snapshot with
// the span timestamps forced to the given (foreign) timebase.
func workerTelemetry(startNs int64) obs.Telemetry {
	return obs.Telemetry{
		Spans: []obs.SpanRecord{
			{ID: 2, Parent: 1, Root: 1, Name: "hunt", StartNs: startNs + 50, DurNs: 100},
			{ID: 1, Root: 1, Name: "shard", StartNs: startNs, DurNs: 300},
		},
		Counters:   map[string]int64{"keys.found": 1, "progress.campaign": 500},
		Histograms: []obs.HistogramSnapshot{histOf("hunt.chunk_ns", 1000, 2000)},
	}
}

func histOf(name string, vals ...int64) obs.HistogramSnapshot {
	var h obs.Histogram
	for _, v := range vals {
		h.Observe(v)
	}
	return h.Snapshot(name)
}

func trackedSpans(col *obs.Collector, name string) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, s := range col.Spans() {
		if s.Track != "" && (name == "" || s.Name == name) {
			out = append(out, s)
		}
	}
	return out
}

// TestCompleteGraftsSkewedWorkerClock: a worker whose obs.Now timebase is
// wildly behind the coordinator's (tiny StartNs, no offset estimate) must
// still land inside the lease span — the MinNs floor clamps the batch to
// the grant time, keeping the merged tree monotonic.
func TestCompleteGraftsSkewedWorkerClock(t *testing.T) {
	h := newTracingHarness(t, 1)
	l, ok := h.sess.board.Lease("w1")
	if !ok {
		t.Fatal("no lease")
	}
	tel := workerTelemetry(5) // worker clock ~0: far before coordinator grant time
	accepted, _ := h.complete(t, completeRequest{
		Campaign: "c1", Lease: l.ID, Shard: l.Shard,
		ClockOffsetNs: 0, Telemetry: tel,
	})
	if !accepted {
		t.Fatal("completion rejected")
	}

	spans := h.col.Spans()
	var leaseSpan, shardSpan, huntSpan obs.SpanRecord
	for _, s := range spans {
		switch s.Name {
		case "fleet.lease":
			leaseSpan = s
		case "shard":
			shardSpan = s
		case "hunt":
			huntSpan = s
		}
	}
	if leaseSpan.ID == 0 || shardSpan.ID == 0 || huntSpan.ID == 0 {
		t.Fatalf("missing spans in merged tree: %+v", spans)
	}
	if shardSpan.Parent != leaseSpan.ID {
		t.Errorf("shard parent = %d, want lease %d", shardSpan.Parent, leaseSpan.ID)
	}
	if shardSpan.StartNs < leaseSpan.StartNs {
		t.Errorf("skewed shard span at %d precedes lease at %d", shardSpan.StartNs, leaseSpan.StartNs)
	}
	if huntSpan.StartNs-shardSpan.StartNs != 50 {
		t.Errorf("relative timing mangled: hunt-shard gap %d, want 50", huntSpan.StartNs-shardSpan.StartNs)
	}
	if shardSpan.Track != "w1" || huntSpan.Track != "w1" {
		t.Errorf("tracks = %q/%q, want w1", shardSpan.Track, huntSpan.Track)
	}
	// Per-worker labelled histogram series exists alongside the aggregate.
	if h.col.Histogram("hunt.chunk_ns") == nil || h.col.Histogram("hunt.chunk_ns;worker=w1") == nil {
		t.Error("missing aggregate or per-worker histogram series")
	}
	if got := h.col.Report().Counters["keys.found"]; got != 1 {
		t.Errorf("counter merge = %d, want 1", got)
	}
	if _, ok := h.col.Report().Counters["progress.campaign"]; ok {
		t.Error("worker progress high-water mark leaked into coordinator counters")
	}
}

// TestLastCompletionSettlesBeforeDone: the campaign cannot be seen as
// finished while its last accepted shard's progress and telemetry are
// still being booked, or a job would fold its collector without them.
// The plan's progress hook stalls the completion handler right after the
// board accepted the shard; Done must stay open until it returns, and by
// then the shard's spans are grafted and progress is at the total.
func TestLastCompletionSettlesBeforeDone(t *testing.T) {
	h := newTracingHarness(t, 1)
	entered, release := make(chan struct{}), make(chan struct{})
	h.sess.plan = testPlan(t, testShards(1, 128), &obs.Funcs{OnProgress: func(stage string, done, total int64) {
		if stage == "campaign" && done == total {
			close(entered)
			<-release
		}
	}})
	l, ok := h.sess.board.Lease("w1")
	if !ok {
		t.Fatal("no lease")
	}
	tel := workerTelemetry(100)
	accepted := make(chan bool)
	go func() {
		ok, _ := h.complete(t, completeRequest{Campaign: "c1", Lease: l.ID, Shard: l.Shard, Telemetry: tel})
		accepted <- ok
	}()
	<-entered
	select {
	case <-h.sess.board.Done():
		t.Fatal("board done while its last shard was still settling")
	default:
	}
	close(release)
	if !<-accepted {
		t.Fatal("completion rejected")
	}
	<-h.sess.board.Done()
	if got := trackedSpans(h.col, "hunt"); len(got) != 1 {
		t.Fatalf("grafted hunt spans at done = %d, want 1", len(got))
	}
}

// TestAbortWaitsForSettlingCompletion: a cancelled campaign's Abort
// returns only after an accepted completion finished settling, so nothing
// books into the job's collector after the job went terminal.
func TestAbortWaitsForSettlingCompletion(t *testing.T) {
	b, _ := testBoard(2, time.Minute)
	l, _ := b.Lease("w1")
	entered, release := make(chan struct{}), make(chan struct{})
	var settled atomic.Bool
	go b.Complete(l.ID, result(l.Shard), func(CompleteInfo) {
		close(entered)
		<-release
		settled.Store(true)
	})
	<-entered
	aborted := make(chan struct{})
	go func() {
		b.Abort()
		close(aborted)
	}()
	select {
	case <-aborted:
		t.Fatal("Abort returned while a completion was settling")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-aborted
	if !settled.Load() {
		t.Fatal("Abort returned before the settle step finished")
	}
}

// TestStolenShardAttribution: when a straggling shard is stolen, only the
// winning completion's telemetry grafts; the loser's spans are dropped
// with its results, so the timeline shows exactly one worker scanning the
// shard.
func TestStolenShardAttribution(t *testing.T) {
	h := newTracingHarness(t, 1)
	clk := &fakeClock{}
	h.sess.board.now = clk.now
	seedHistory(h.sess.board, stragglerSampleFloor, time.Millisecond)
	slow, ok := h.sess.board.Lease("w-slow")
	if !ok {
		t.Fatal("no initial lease")
	}
	clk.advance(int64(time.Second)) // far past the ~2ms straggler bound
	fast, ok := h.sess.board.Lease("w-fast")
	if !ok || !fast.Stolen {
		t.Fatal("no stolen duplicate")
	}

	fastTel := workerTelemetry(100)
	if accepted, _ := h.complete(t, completeRequest{
		Campaign: "c1", Lease: fast.ID, Shard: fast.Shard,
		Telemetry: fastTel,
	}); !accepted {
		t.Fatal("winning completion rejected")
	}
	slowTel := workerTelemetry(200)
	if accepted, _ := h.complete(t, completeRequest{
		Campaign: "c1", Lease: slow.ID, Shard: slow.Shard,
		Telemetry: slowTel,
	}); accepted {
		t.Fatal("losing duplicate accepted")
	}

	shards := trackedSpans(h.col, "shard")
	if len(shards) != 1 || shards[0].Track != "w-fast" {
		t.Fatalf("stolen shard attribution wrong: %+v", shards)
	}
	if got := h.col.Report().Counters["keys.found"]; got != 1 {
		t.Errorf("loser's counters merged too: keys.found = %d, want 1", got)
	}
}

// TestDuplicateCompletionGraftsOnce: a completion that arrives again for
// a lease already completed — a retried post, or a late copy — is not
// accepted, and its telemetry cannot graft a second time.
func TestDuplicateCompletionGraftsOnce(t *testing.T) {
	h := newTracingHarness(t, 1)
	l, ok := h.sess.board.Lease("w1")
	if !ok {
		t.Fatal("no lease")
	}
	req := completeRequest{Campaign: "c1", Lease: l.ID, Shard: l.Shard, Telemetry: workerTelemetry(100)}
	if accepted, _ := h.complete(t, req); !accepted {
		t.Fatal("completion rejected")
	}
	if accepted, code := h.complete(t, req); accepted || code != 200 {
		t.Fatalf("duplicate completion: accepted %v, status %d; want dropped with 200", accepted, code)
	}
	if got := trackedSpans(h.col, "hunt"); len(got) != 1 {
		t.Fatalf("hunt span grafted %d times, want once", len(got))
	}
	if got := h.col.Report().Counters["keys.found"]; got != 1 {
		t.Fatalf("counters double-merged: keys.found = %d, want 1", got)
	}
}

// TestExpiredLeaseTelemetryDiscarded: once a lease expires, its
// completion is refused, so no spans from the dead lease ever reach the
// merged timeline.
func TestExpiredLeaseTelemetryDiscarded(t *testing.T) {
	col := obs.NewCollector()
	c := NewCoordinator(time.Minute, col)
	clk := &fakeClock{}
	b := NewBoard(testShards(1, 128), time.Second, col, nil)
	b.now = clk.now
	s := &session{id: "c1", plan: testPlan(t, testShards(1, 128), nil), board: b, col: col}
	c.mu.Lock()
	c.sessions[s.id] = s
	c.order = append(c.order, s.id)
	c.mu.Unlock()
	h := &tracingHarness{coord: c, sess: s, col: col}

	l, _ := b.Lease("w1")
	tel := workerTelemetry(100)
	clk.advance(int64(2 * time.Second)) // lease expires
	b.Expire()                          // the coordinator's expiry tick
	if accepted, _ := h.complete(t, completeRequest{
		Campaign: "c1", Lease: l.ID, Shard: l.Shard, Telemetry: tel,
	}); accepted {
		t.Fatal("expired lease completion accepted")
	}
	if got := trackedSpans(h.col, ""); len(got) != 0 {
		t.Fatalf("dead lease left %d spans in the timeline", len(got))
	}
}

// TestStragglerDetection: completions beyond 2x the p99 of earlier ones
// are flagged, counted, and attributed on the lease span.
func TestStragglerDetection(t *testing.T) {
	clk := &fakeClock{}
	col := obs.NewCollector()
	b := NewBoard(testShards(10, 128), time.Hour, col, nil)
	b.now = clk.now
	for i := 0; i < 9; i++ {
		l, ok := b.Lease("w1")
		if !ok {
			t.Fatalf("lease %d refused", i)
		}
		dur := int64(time.Millisecond)
		if i == 8 {
			dur = int64(time.Minute) // way past 2x p99 of the first 8
		}
		clk.advance(dur)
		info, ok := b.Complete(l.ID, result(l.Shard), nil)
		if !ok {
			t.Fatalf("completion %d rejected", i)
		}
		if want := i == 8; info.Straggler != want {
			t.Fatalf("completion %d straggler = %v, want %v", i, info.Straggler, want)
		}
	}
	if got := col.Report().Counters["fleet.stragglers"]; got != 1 {
		t.Fatalf("fleet.stragglers counter = %d, want 1", got)
	}
	// Per-worker shard-duration series fed the labelled family.
	if col.Histogram("fleet.shard_ns;worker=w1") == nil {
		t.Fatal("missing per-worker fleet.shard_ns series")
	}
	var buf bytes.Buffer
	if err := col.Report().WritePrometheus(&buf, "coldbootd_pipeline"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `coldbootd_pipeline_fleet_shard_seconds_count{worker="w1"} 9`) {
		t.Fatalf("per-worker labelled series missing from exposition:\n%s", buf.String())
	}
}

// TestLeaseRefusesBadWorkerNames: a lease call must name its worker with
// 1 to 64 bytes of [A-Za-z0-9._-]; any other name is refused with 400
// before it can become a trace track or a /metrics label.
func TestLeaseRefusesBadWorkerNames(t *testing.T) {
	h := newTracingHarness(t, 1)
	lease := func(name string) int {
		body, _ := json.Marshal(leaseRequest{Worker: name})
		wr := httptest.NewRecorder()
		h.coord.handleLease(wr, httptest.NewRequest("POST", "/v1/shards/lease", bytes.NewReader(body)))
		return wr.Code
	}
	for _, name := range []string{"", strings.Repeat("w", maxWorkerName+1), "w;job=x", `w"}`, "w 1", "w\n", "wé"} {
		if code := lease(name); code != 400 {
			t.Errorf("lease as %q: status %d, want 400", name, code)
		}
	}
	if code := lease(strings.Repeat("w", maxWorkerName-5) + "-1._Z"); code != 200 {
		t.Errorf("lease with a valid 64-byte name: status %d, want 200", code)
	}
}

// TestForgedCompletionNameIgnored: the grafted spans and per-worker
// series are labelled with the worker the lease was granted to; a
// completion body that names another worker changes nothing.
func TestForgedCompletionNameIgnored(t *testing.T) {
	h := newTracingHarness(t, 1)
	l, ok := h.sess.board.Lease("w1")
	if !ok {
		t.Fatal("no lease")
	}
	body, _ := json.Marshal(completeRequest{Campaign: "c1", Lease: l.ID, Shard: l.Shard, Telemetry: workerTelemetry(100)})
	forged := append(bytes.TrimSuffix(body, []byte("}")), `,"worker":"w1;job=x"}`...)
	if accepted, code := h.post(forged); !accepted {
		t.Fatalf("completion rejected (status %d)", code)
	}
	if shards := trackedSpans(h.col, "shard"); len(shards) != 1 || shards[0].Track != "w1" {
		t.Errorf("grafted shard spans %+v, want one on track w1", shards)
	}
	var names []string
	for _, hist := range h.col.Report().Histograms {
		names = append(names, hist.Name)
	}
	if !slices.Contains(names, "hunt.chunk_ns;worker=w1") || slices.ContainsFunc(names, func(n string) bool { return strings.Contains(n, "job") }) {
		t.Errorf("histogram series %v, want hunt.chunk_ns;worker=w1 and no forged label", names)
	}
}
