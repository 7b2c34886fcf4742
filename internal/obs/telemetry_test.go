package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestGraftRemapsAndReparents builds a worker-side collector with a small
// span tree, grafts its telemetry into a coordinator-side collector, and
// asserts IDs are remapped into the local space, foreign roots hang off the
// adopting span, and every grafted span carries the worker track.
func TestGraftRemapsAndReparents(t *testing.T) {
	worker := NewCollector()
	root := worker.StartSpan("shard.scan")
	child := root.Child("hunt", Attr{Key: "chunk", Value: "0"})
	child.End()
	root.End()
	worker.Count("keys.found", 2)
	worker.Observe("hunt.chunk_ns", 1500)

	coord := NewCollector()
	lease := coord.StartSpan("fleet.lease")
	leaseID := coord.SpanID(lease)
	_, treeRoot := coord.SpanContext(lease)
	if leaseID == 0 || treeRoot == 0 {
		t.Fatalf("SpanContext on own span = (%d, %d), want nonzero", leaseID, treeRoot)
	}

	n := coord.Graft(worker.Telemetry(), GraftOptions{
		Parent: leaseID, Root: treeRoot, Track: "w1",
	})
	if n != 2 {
		t.Fatalf("grafted %d spans, want 2", n)
	}
	lease.End()

	spans := coord.Spans()
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	scan, ok := byName["shard.scan"]
	if !ok {
		t.Fatalf("grafted shard.scan span missing; have %+v", spans)
	}
	hunt := byName["hunt"]
	if scan.Parent != leaseID {
		t.Errorf("foreign root parent = %d, want lease span %d", scan.Parent, leaseID)
	}
	if hunt.Parent != scan.ID {
		t.Errorf("grafted child parent = %d, want remapped %d", hunt.Parent, scan.ID)
	}
	if scan.Root != treeRoot || hunt.Root != treeRoot {
		t.Errorf("grafted roots = %d/%d, want %d", scan.Root, hunt.Root, treeRoot)
	}
	if scan.Track != "w1" || hunt.Track != "w1" {
		t.Errorf("grafted tracks = %q/%q, want w1", scan.Track, hunt.Track)
	}
	if scan.ID == 0 || scan.ID == hunt.ID {
		t.Errorf("remapped IDs not unique: scan=%d hunt=%d", scan.ID, hunt.ID)
	}
	if len(hunt.Attrs) != 1 || hunt.Attrs[0].Key != "chunk" {
		t.Errorf("grafted attrs lost: %+v", hunt.Attrs)
	}

	rep := coord.Report()
	if rep.Counters["keys.found"] != 2 {
		t.Errorf("merged counter = %d, want 2", rep.Counters["keys.found"])
	}
	h := coord.Histogram("hunt.chunk_ns")
	if h == nil || h.Snapshot("hunt.chunk_ns").Count != 1 {
		t.Errorf("merged histogram missing or wrong count")
	}
}

// TestGraftClockCorrection asserts the offset is applied and that a
// corrected batch landing before MinNs is clamped so the earliest span
// starts exactly at the floor — keeping the merged tree monotonic under
// worker clock skew in both directions.
func TestGraftClockCorrection(t *testing.T) {
	tel := Telemetry{Spans: []SpanRecord{
		{ID: 1, Root: 1, Name: "a", StartNs: 1000, DurNs: 10},
		{ID: 2, Parent: 1, Root: 1, Name: "b", StartNs: 1500, DurNs: 10},
	}}

	c := NewCollector()
	c.Graft(tel, GraftOptions{OffsetNs: 500, MinNs: 0})
	spans := c.Spans()
	if spans[0].StartNs != 1500 || spans[1].StartNs != 2000 {
		t.Errorf("offset not applied: starts %d/%d, want 1500/2000", spans[0].StartNs, spans[1].StartNs)
	}

	// Offset would pull the batch to 0/500, below the floor of 4000: the
	// whole batch must shift uniformly so min lands at 4000.
	c2 := NewCollector()
	c2.Graft(tel, GraftOptions{OffsetNs: -1000, MinNs: 4000})
	spans = c2.Spans()
	if spans[0].StartNs != 4000 || spans[1].StartNs != 4500 {
		t.Errorf("clamp broken: starts %d/%d, want 4000/4500", spans[0].StartNs, spans[1].StartNs)
	}
	if gap := spans[1].StartNs - spans[0].StartNs; gap != 500 {
		t.Errorf("relative timing not preserved: gap %d, want 500", gap)
	}
}

// TestGraftSkipsProgressCounters asserts per-process progress high-water
// marks never sum across workers.
func TestGraftSkipsProgressCounters(t *testing.T) {
	c := NewCollector()
	c.Graft(Telemetry{Counters: map[string]int64{
		"progress.campaign": 900,
		"fleet.retries":     3,
	}}, GraftOptions{})
	rep := c.Report()
	if _, ok := rep.Counters["progress.campaign"]; ok {
		t.Errorf("progress counter leaked into merge: %v", rep.Counters)
	}
	if rep.Counters["fleet.retries"] != 3 {
		t.Errorf("additive counter lost: %v", rep.Counters)
	}
}

// TestMergeHistogramExact asserts a snapshot merge is exact: merging N
// collectors' snapshots equals observing all samples in one collector,
// bucket for bucket.
func TestMergeHistogramExact(t *testing.T) {
	samples := []int64{0, 1, 2, 3, 500, 1023, 1024, 1 << 30, 1<<62 + 7}
	direct := &Histogram{}
	a, b := NewCollector(), NewCollector()
	for i, v := range samples {
		direct.Observe(v)
		if i%2 == 0 {
			a.Observe("x_ns", v)
		} else {
			b.Observe("x_ns", v)
		}
	}
	merged := NewCollector()
	merged.MergeHistogram("x_ns", a.Histogram("x_ns").Snapshot("x_ns"))
	merged.MergeHistogram("x_ns", b.Histogram("x_ns").Snapshot("x_ns"))

	want := direct.Snapshot("x_ns")
	got := merged.Histogram("x_ns").Snapshot("x_ns")
	if got.Count != want.Count || got.Sum != want.Sum {
		t.Fatalf("merge count/sum = %d/%d, want %d/%d", got.Count, got.Sum, want.Count, want.Sum)
	}
	if len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("bucket count %d, want %d", len(got.Buckets), len(want.Buckets))
	}
	for i := range want.Buckets {
		if got.Buckets[i] != want.Buckets[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got.Buckets[i], want.Buckets[i])
		}
	}
}

// TestGraftRespectsSpanCap asserts overflowing spans are counted dropped,
// and shipped drop counts accumulate.
func TestGraftRespectsSpanCap(t *testing.T) {
	tel := Telemetry{SpansDropped: 7}
	for i := uint64(1); i <= 3; i++ {
		tel.Spans = append(tel.Spans, SpanRecord{ID: i, Root: 1, Name: "s"})
	}
	c := NewCollector()
	c.mu.Lock()
	c.spans = make([]SpanRecord, spanLimit-1) // one slot left
	c.mu.Unlock()
	n := c.Graft(tel, GraftOptions{})
	if n != 1 {
		t.Fatalf("grafted %d, want 1 (cap)", n)
	}
	if rep := c.Report(); rep.SpansDropped != 2+7 {
		t.Fatalf("SpansDropped = %d, want 9", rep.SpansDropped)
	}
}

// TestTelemetryRoundTripJSON asserts the wire document survives JSON.
func TestTelemetryRoundTripJSON(t *testing.T) {
	w := NewCollector()
	sp := w.StartSpan("shard.scan", Attr{Key: "shard", Value: "3"})
	sp.End()
	w.Count("n", 1)
	w.Observe("lat_ns", 42)
	tel := w.Telemetry()
	data, err := json.Marshal(tel)
	if err != nil {
		t.Fatal(err)
	}
	var back Telemetry
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != 1 || back.Spans[0].Name != "shard.scan" ||
		back.Counters["n"] != 1 || len(back.Histograms) != 1 {
		t.Fatalf("round trip mangled telemetry: %+v", back)
	}
}

// TestFindCollectorAndSpanIdentity asserts collector discovery and span
// resolution see through the Multi wrapper and reject foreign spans.
func TestFindCollectorAndSpanIdentity(t *testing.T) {
	c := NewCollector()
	other := NewCollector()
	multi := Multi(&Funcs{}, c)
	if FindCollector(multi) != c {
		t.Fatal("FindCollector failed through Multi")
	}
	if FindCollector(Nop) != nil || FindCollector(&Funcs{}) != nil {
		t.Fatal("FindCollector invented a collector")
	}
	s := multi.StartSpan("x")
	if id := c.SpanID(s); id == 0 {
		t.Fatal("SpanID failed through multiSpan")
	}
	if id := other.SpanID(s); id != 0 {
		t.Fatalf("foreign collector resolved span to %d, want 0", id)
	}
	if c.SpanID(Nop.StartSpan("x")) != 0 {
		t.Fatal("nop span resolved to nonzero ID")
	}
}

// TestPrometheusLabeledHistograms asserts ";key=value" name suffixes render
// as one labelled family: HELP/TYPE once, per-worker bucket/sum/count
// series distinguished by label.
func TestPrometheusLabeledHistograms(t *testing.T) {
	c := NewCollector()
	c.Observe("fleet.shard_ns;worker=w1", 1000)
	c.Observe("fleet.shard_ns;worker=w1", 3000)
	c.Observe("fleet.shard_ns;worker=w2", 2000)
	var buf bytes.Buffer
	if err := c.Report().WritePrometheus(&buf, "coldbootd_pipeline"); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	const metric = "coldbootd_pipeline_fleet_shard_seconds"
	if n := strings.Count(text, "# TYPE "+metric+" histogram"); n != 1 {
		t.Fatalf("family TYPE emitted %d times, want once:\n%s", n, text)
	}
	for _, want := range []string{
		metric + `_bucket{le="+Inf",worker="w1"} 2`,
		metric + `_bucket{le="+Inf",worker="w2"} 1`,
		metric + `_count{worker="w1"} 2`,
		metric + `_count{worker="w2"} 1`,
		metric + `_sum{worker="w1"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	validatePromText(t, text)
}

// TestPrometheusSpansDropped asserts the drop counter is always exposed.
func TestPrometheusSpansDropped(t *testing.T) {
	var buf bytes.Buffer
	if err := (Report{}).WritePrometheus(&buf, "x"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x_spans_dropped_total 0") {
		t.Fatalf("missing spans_dropped_total in:\n%s", buf.String())
	}
	validatePromText(t, buf.String())
}

// TestJournalOverwritten asserts ring wrap is counted for /metrics.
func TestJournalOverwritten(t *testing.T) {
	c := NewJournaledCollector(4)
	for i := 0; i < 10; i++ {
		c.Count("e", 1)
	}
	if got := c.Journal().Overwritten(); got != 6 {
		t.Fatalf("Overwritten = %d, want 6", got)
	}
}

// TestChromeTraceWorkerTracks asserts grafted spans with Track set render
// on their own named lanes: synthetic tids distinct from the coordinator's,
// plus thread_name metadata events naming each lane.
func TestChromeTraceWorkerTracks(t *testing.T) {
	coord := NewCollector()
	job := coord.StartSpan("job")
	jobID, root := coord.SpanContext(job)

	w1 := NewCollector()
	s := w1.StartSpan("shard.scan")
	s.End()
	coord.Graft(w1.Telemetry(), GraftOptions{Parent: jobID, Root: root, Track: "w1"})

	w2 := NewCollector()
	s = w2.StartSpan("shard.scan")
	s.End()
	coord.Graft(w2.Telemetry(), GraftOptions{Parent: jobID, Root: root, Track: "w2"})
	job.End()

	var buf bytes.Buffer
	if err := coord.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Pid  int               `json:"pid"`
			Tid  uint64            `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	laneNames := map[uint64]string{}
	tids := map[string]uint64{}
	var xEvents, lastTs = 0, -1.0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name != "thread_name" {
				t.Errorf("unexpected metadata event %q", e.Name)
			}
			laneNames[e.Tid] = e.Args["name"]
		case "X":
			xEvents++
			if e.Ts < lastTs {
				t.Errorf("ts not monotonic: %g after %g", e.Ts, lastTs)
			}
			lastTs = e.Ts
			tids[e.Name+"/"+e.Args["span"]] = e.Tid
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if xEvents != 3 {
		t.Fatalf("got %d X events, want 3", xEvents)
	}
	names := map[string]bool{}
	for _, n := range laneNames {
		names[n] = true
	}
	for _, want := range []string{"coordinator", "w1", "w2"} {
		if !names[want] {
			t.Errorf("missing %q lane in %v", want, laneNames)
		}
	}
	// The two worker scans must land on different lanes, both distinct from
	// the coordinator's job lane.
	seen := map[uint64]bool{}
	for key, tid := range tids {
		if seen[tid] {
			t.Errorf("lane %d reused across %v", tid, tids)
		}
		seen[tid] = true
		_ = key
	}
}

// TestGraftJournalsSpansAndCounters: a journaled collector's events carry
// a graft too, under the grafted records' IDs: every span as a
// span_start (parents first) and a span_end, and every counter but the
// progress marks as one count event of its value.
func TestGraftJournalsSpansAndCounters(t *testing.T) {
	worker := NewCollector()
	root := worker.StartSpan("shard")
	root.Child("hunt").End()
	root.End()
	worker.Count("keys.found", 2)
	worker.Progress("campaign", 5, 10)

	coord := NewJournaledCollector(64)
	lease := coord.StartSpan("fleet.lease")
	leaseID, treeRoot := coord.SpanContext(lease)
	coord.Graft(worker.Telemetry(), GraftOptions{Parent: leaseID, Root: treeRoot, Track: "w1"})
	lease.End()

	events, _ := coord.Journal().ReadSince(0, 0)
	var starts, ends []Event
	counts := map[string]int64{}
	for _, e := range events {
		switch e.Type {
		case "span_start":
			starts = append(starts, e)
		case "span_end":
			ends = append(ends, e)
		case "count":
			counts[e.Name] += e.Delta
		}
	}
	recs := coord.Spans()
	if len(ends) != len(recs) {
		t.Fatalf("%d span_end events for %d span records", len(ends), len(recs))
	}
	for i, r := range recs {
		if ends[i].Span != r.ID || ends[i].Name != r.Name || ends[i].WallNs != r.DurNs {
			t.Errorf("span_end %d = %+v, want record %+v", i, ends[i], r)
		}
	}
	if len(starts) != 3 || starts[1].Name != "shard" || starts[1].Parent != leaseID ||
		starts[2].Name != "hunt" || starts[2].Parent != starts[1].Span {
		t.Errorf("grafted span_starts not parent first under the lease: %+v", starts)
	}
	if len(counts) != 1 || counts["keys.found"] != 2 {
		t.Errorf("count events %v, want keys.found=2 alone", counts)
	}
}

// TestTelemetryCheck: Check passes a collector's own telemetry and refuses
// each way a foreign document could break a Graft or a counter.
func TestTelemetryCheck(t *testing.T) {
	good := func() Telemetry {
		c := NewCollector()
		s := c.StartSpan("shard")
		s.Child("hunt").End()
		s.End()
		c.Count("keys.found", 1)
		c.Observe("hunt.chunk_ns", 0)
		c.Observe("hunt.chunk_ns", 1500)
		c.Observe("hunt.chunk_ns", 1<<62)
		return c.Telemetry()
	}
	if tel := good(); tel.Check() != nil {
		t.Fatalf("collector telemetry refused: %v", tel.Check())
	}
	for name, mutate := range map[string]func(*Telemetry){
		"negative le": func(tel *Telemetry) { tel.Histograms[0].Buckets[0].UpperBound = -1 },
		"off-grid le": func(tel *Telemetry) { tel.Histograms[0].Buckets[1].UpperBound = 1500 },
		"unsorted le": func(tel *Telemetry) {
			b := tel.Histograms[0].Buckets
			b[0], b[1] = b[1], b[0]
		},
		"falling count":    func(tel *Telemetry) { tel.Histograms[0].Buckets[1].Count = 0 },
		"negative count":   func(tel *Telemetry) { tel.Histograms[0].Buckets[0].Count = -1 },
		"negative sum":     func(tel *Telemetry) { tel.Histograms[0].Sum = -1 },
		"too many buckets": func(tel *Telemetry) { tel.Histograms[0].Buckets = make([]HistogramBucket, histBuckets+1) },
		"zero span id":     func(tel *Telemetry) { tel.Spans[0].ID = 0 },
		"duplicate id":     func(tel *Telemetry) { tel.Spans[1].ID = tel.Spans[0].ID },
		"negative dur":     func(tel *Telemetry) { tel.Spans[0].DurNs = -1 },
		"negative counter": func(tel *Telemetry) { tel.Counters["keys.found"] = -1 },
		"negative drops":   func(tel *Telemetry) { tel.SpansDropped = -1 },
		"too many spans":   func(tel *Telemetry) { tel.Spans = make([]SpanRecord, spanLimit+1) },
	} {
		tel := good()
		mutate(&tel)
		if tel.Check() == nil {
			t.Errorf("%s: Check passed", name)
		}
	}
}
