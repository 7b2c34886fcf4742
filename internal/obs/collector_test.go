package obs

import (
	"reflect"
	"testing"
	"time"
)

// A Count/Progress-only run (no stages at all) must still report wall
// time: every hook touches the first/last event bounds.
func TestCollectorTotalWithoutStages(t *testing.T) {
	c := NewCollector()
	c.Count("pairs", 1)
	time.Sleep(2 * time.Millisecond)
	c.Progress("hunt", 5, 10)
	r := c.Report()
	if r.TotalNs < int64(time.Millisecond) {
		t.Fatalf("TotalNs = %d, want >= 1ms for a Count/Progress-only run", r.TotalNs)
	}
	c2 := NewCollector()
	c2.Observe("lat_ns", 7)
	time.Sleep(2 * time.Millisecond)
	c2.Observe("lat_ns", 9)
	if r := c2.Report(); r.TotalNs < int64(time.Millisecond) {
		t.Fatalf("TotalNs = %d, want >= 1ms for an Observe-only run", r.TotalNs)
	}
	if r := NewCollector().Report(); r.TotalNs != 0 {
		t.Fatalf("empty collector TotalNs = %d, want 0", r.TotalNs)
	}
}

func TestCollectorSpanTree(t *testing.T) {
	c := NewCollector()
	root := c.StartSpan("attack", A("blocks", "32"))
	hunt := root.Child("hunt")
	w0 := hunt.Child("hunt.worker", A("worker", "0"))
	w0.SetAttr("blocks", "0-16")
	w0.End()
	w0.End() // idempotent: must not double-count
	hunt.End()
	root.SetAttr("keys", "1")
	root.End()

	spans := c.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	att, hu, wk := byName["attack"], byName["hunt"], byName["hunt.worker"]
	if att.Parent != 0 || att.Root != att.ID {
		t.Errorf("attack should be a root span: %+v", att)
	}
	if hu.Parent != att.ID || hu.Root != att.ID {
		t.Errorf("hunt should parent under attack: %+v", hu)
	}
	if wk.Parent != hu.ID || wk.Root != att.ID {
		t.Errorf("worker should parent under hunt, rooted at attack: %+v", wk)
	}
	if wk.StartNs < hu.StartNs || hu.StartNs < att.StartNs {
		t.Error("child spans must not start before their parents")
	}
	wantAttrs := map[string]string{"worker": "0", "blocks": "0-16"}
	got := map[string]string{}
	for _, a := range wk.Attrs {
		got[a.Key] = a.Value
	}
	for k, v := range wantAttrs {
		if got[k] != v {
			t.Errorf("worker attr %s = %q, want %q", k, got[k], v)
		}
	}

	// Spans also feed the flat stage aggregates (with idempotent End).
	r := c.Report()
	if len(r.Stages) != 3 {
		t.Fatalf("got %d stages, want 3: %+v", len(r.Stages), r.Stages)
	}
	for _, s := range r.Stages {
		if s.Calls != 1 {
			t.Errorf("stage %s calls = %d, want 1", s.Name, s.Calls)
		}
	}
	if r.Stages[0].Name != "attack" || r.Stages[1].Name != "hunt" {
		t.Errorf("stages not in first-start order: %+v", r.Stages)
	}
}

func TestCollectorSetAttrOverwrites(t *testing.T) {
	c := NewCollector()
	s := c.StartSpan("x", A("k", "a"))
	s.SetAttr("k", "b")
	s.End()
	spans := c.Spans()
	if len(spans) != 1 || len(spans[0].Attrs) != 1 || spans[0].Attrs[0].Value != "b" {
		t.Fatalf("SetAttr should overwrite: %+v", spans)
	}
}

func TestCollectorSpanLimit(t *testing.T) {
	c := NewCollector()
	for i := 0; i < spanLimit+10; i++ {
		c.StartSpan("s").End()
	}
	r := c.Report()
	if len(r.Spans) != spanLimit {
		t.Fatalf("kept %d spans, want cap %d", len(r.Spans), spanLimit)
	}
	if r.SpansDropped != 10 {
		t.Fatalf("SpansDropped = %d, want 10", r.SpansDropped)
	}
	// The flat aggregates keep counting past the cap.
	if r.Stages[0].Calls != spanLimit+10 {
		t.Fatalf("calls = %d, want %d", r.Stages[0].Calls, spanLimit+10)
	}
}

func TestObsClock(t *testing.T) {
	a := Now()
	time.Sleep(time.Millisecond)
	if d := Since(a); d < int64(time.Millisecond) {
		t.Fatalf("Since = %dns across a 1ms sleep", d)
	}
	if b := Now(); b <= a {
		t.Fatalf("Now not monotonic: %d then %d", a, b)
	}
}

// TestCollectorStageTable: the stage table a job's status serves. A stage
// is running while any of its spans is open, its wall time accumulates
// across calls, and its progress keeps the high-water marks; progress for
// a stage no span opened stays a counter only.
func TestCollectorStageTable(t *testing.T) {
	c := NewCollector()
	mine := c.StartSpan("mine")
	time.Sleep(2 * time.Millisecond)
	mine.End()
	hunt := c.StartSpan("hunt")
	c.Progress("hunt", 10, 100)
	c.Progress("hunt", 7, 90) // a stale report must not regress either mark
	c.Progress("campaign", 5, 50)

	r := c.Summary()
	if len(r.Stages) != 2 || r.Stages[0].Name != "mine" || r.Stages[1].Name != "hunt" {
		t.Fatalf("stages = %+v, want mine then hunt", r.Stages)
	}
	if m, h := r.Stages[0], r.Stages[1]; m.Running || !h.Running {
		t.Errorf("running flags: mine %v hunt %v, want false/true", m.Running, h.Running)
	}
	if h := r.Stages[1]; h.Done != 10 || h.Total != 100 || h.Calls != 0 {
		t.Errorf("open hunt stage = %+v, want 10/100 with no completed call", h)
	}
	if r.Counters["progress.campaign"] != 5 {
		t.Errorf("progress.campaign = %d, want 5", r.Counters["progress.campaign"])
	}
	if r.Spans != nil {
		t.Errorf("Summary carries %d spans", len(r.Spans))
	}
	// The status path's cheap reads agree with Summary.
	if got := c.Stages(); !reflect.DeepEqual(got, r.Stages) {
		t.Errorf("Stages() = %+v, want Summary's %+v", got, r.Stages)
	}
	c.Count("format.luks2", 2)
	if got := c.Counters("progress."); !reflect.DeepEqual(got, map[string]int64{"campaign": 5, "hunt": 10}) {
		t.Errorf(`Counters("progress.") = %v, want campaign 5 and hunt 10`, got)
	}

	second := c.StartSpan("mine")
	time.Sleep(2 * time.Millisecond)
	second.End()
	hunt.End()
	r = c.Summary()
	if m := r.Stages[0]; m.Calls != 2 || m.WallNs < 4*int64(time.Millisecond) {
		t.Errorf("mine = %+v, want 2 calls and >= 4ms accumulated", m)
	}
	if h := r.Stages[1]; h.Running || h.Calls != 1 {
		t.Errorf("ended hunt stage = %+v, want 1 call, not running", h)
	}
}

// TestCollectorFold: folding adds stage calls, wall time, counters,
// histograms and dropped spans, keeps the higher progress marks, widens
// the observed range, and leaves the spans with the source.
func TestCollectorFold(t *testing.T) {
	job := NewCollector()
	sp := job.StartSpan("hunt")
	job.Progress("hunt", 40, 100)
	sp.End()
	job.Count("pairs", 3)
	job.Observe("lat_ns", 500)

	daemon := NewCollector()
	daemon.StartSpan("hunt").End()
	daemon.Progress("hunt", 60, 100)
	daemon.Count("pairs", 2)
	daemon.Observe("lat_ns", 7)
	daemon.Fold(job)

	r := daemon.Report()
	if len(r.Stages) != 1 || r.Stages[0].Calls != 2 || r.Stages[0].Done != 60 || r.Stages[0].Total != 100 {
		t.Errorf("folded stage = %+v, want 2 calls at 60/100", r.Stages)
	}
	if r.Stages[0].WallNs < job.Summary().Stages[0].WallNs {
		t.Errorf("folded wall %d below the job's alone", r.Stages[0].WallNs)
	}
	if r.Counters["pairs"] != 5 || r.Counters["progress.hunt"] != 60 {
		t.Errorf("folded counters = %v, want pairs 5 and progress.hunt 60", r.Counters)
	}
	if h := daemon.Histogram("lat_ns").Snapshot("lat_ns"); h.Count != 2 || h.Sum != 507 {
		t.Errorf("folded histogram count/sum = %d/%d, want 2/507", h.Count, h.Sum)
	}
	if len(r.Spans) != 1 {
		t.Errorf("fold copied spans: daemon holds %d, want its own 1", len(r.Spans))
	}
	if r.TotalNs < job.Summary().TotalNs {
		t.Errorf("folded TotalNs %d narrower than the job's %d", r.TotalNs, job.Summary().TotalNs)
	}
}

// TestSpanIDsUniqueAcrossCollectors: span IDs come from one process-wide
// sequence, so two collectors' spans share a trace document.
func TestSpanIDsUniqueAcrossCollectors(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	a.StartSpan("x").End()
	b.StartSpan("x").End()
	b.Graft(a.Telemetry(), GraftOptions{})
	seen := map[uint64]bool{}
	for _, s := range append(a.Spans(), b.Spans()...) {
		if seen[s.ID] {
			t.Fatalf("span ID %d appears twice", s.ID)
		}
		seen[s.ID] = true
	}
}
