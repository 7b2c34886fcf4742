package obs

import (
	"encoding/json"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// timebase anchors the package's monotonic clock: all span timestamps and
// event times are nanoseconds since process start, so they are comparable
// across goroutines and cheap to subtract.
var timebase = time.Now()

// Now returns the current monotonic timestamp in nanoseconds since
// process start. Instrumented packages use it instead of time.Now so the
// noprint lint contract ("wall-clock reads live in obs") holds.
func Now() int64 { return int64(time.Since(timebase)) }

// Since returns the nanoseconds elapsed since a timestamp from Now.
func Since(start int64) int64 { return Now() - start }

// spanLimit bounds the span records a Collector retains; a campaign over a
// pathological dump could otherwise grow the trace without bound. Spans
// past the cap are counted in Report.SpansDropped.
const spanLimit = 65536

// nextSpanID numbers spans process-wide: the spans of every Collector in a
// process (a daemon's own and each of its jobs') can share one trace
// document without their IDs colliding.
var nextSpanID atomic.Uint64

// StageReport is one stage's aggregate in a Collector report. A stage that
// ran more than once (per-shard hunts) accumulates calls and wall time.
type StageReport struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	WallNs int64   `json:"wall_ns"`
	WallMs float64 `json:"wall_ms"`
	// Running is set while at least one span of the stage is open.
	Running bool `json:"running,omitempty"`
	// Done and Total are the stage's progress high-water marks (zero when
	// the stage reports no unit counts).
	Done  int64 `json:"done,omitempty"`
	Total int64 `json:"total,omitempty"`
}

// stage is a Collector's live record of one stage: its report fields plus
// the number of its spans started and not yet ended.
type stage struct {
	StageReport
	open int
}

// SpanRecord is one completed span in the Collector's trace tree. IDs are
// assigned in start order and are unique within the process; Parent is 0
// for root spans; Root names the tree the span belongs to (its own ID for
// roots), which the Chrome exporter uses as the track ID. Track, when set,
// names the timeline the span renders on instead (grafted fleet telemetry
// carries the originating worker's name here), so a merged distributed
// trace shows one named lane per worker.
type SpanRecord struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Root    uint64 `json:"root"`
	Track   string `json:"track,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// Report is the Collector's JSON document.
type Report struct {
	// Stages are in first-start order.
	Stages   []StageReport    `json:"stages"`
	Counters map[string]int64 `json:"counters"`
	// Histograms are in first-observe order.
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
	// Spans are completed spans in end order; SpansDropped counts spans
	// discarded past the retention cap.
	Spans        []SpanRecord `json:"spans,omitempty"`
	SpansDropped int64        `json:"spans_dropped,omitempty"`
	// TotalNs spans the first to the last event observed on any hook
	// (stages, spans, counters, progress, or histogram samples).
	TotalNs int64 `json:"total_ns"`

	// firstNs/lastNs bound the observed events as Now()+1 stamps (0 =
	// nothing observed): the range a fold of this report widens its
	// target's by.
	firstNs, lastNs int64
}

// Collector aggregates pipeline events into a Report. The zero value is
// not usable; call NewCollector or NewJournaledCollector.
type Collector struct {
	mu           sync.Mutex
	order        []string          // guarded by mu
	stages       map[string]*stage // guarded by mu
	counters     map[string]int64  // guarded by mu
	spans        []SpanRecord      // guarded by mu
	spansDropped int64             // guarded by mu

	// firstNs/lastNs hold Now()+1 so zero means "unset"; every hook
	// touches them, so a Count/Progress-only run still reports TotalNs.
	firstNs atomic.Int64
	lastNs  atomic.Int64

	hmu    sync.RWMutex
	hists  map[string]*Histogram // guarded by hmu
	horder []string              // guarded by hmu

	// journal, when set, receives every hook as an Event right after the
	// aggregates take it, under the span IDs of the collector's records.
	journal *Journal
}

// NewCollector returns an empty Collector ready for use as a Tracer.
func NewCollector() *Collector {
	return &Collector{
		stages:   make(map[string]*stage),
		counters: make(map[string]int64),
		hists:    make(map[string]*Histogram),
	}
}

// NewJournaledCollector returns an empty Collector that also appends every
// hook, and every span and counter a Graft brings in, to a Journal of up to
// capacity recent events (a default size when capacity <= 0). The journal
// is the collector's live event view, so its events name the same spans as
// the collector's records.
func NewJournaledCollector(capacity int) *Collector {
	c := NewCollector()
	c.journal = newJournal(capacity)
	return c
}

// Journal returns the collector's event journal (nil for a collector made
// by NewCollector).
func (c *Collector) Journal() *Journal { return c.journal }

// touch folds a timestamp into the first/last event bounds.
func (c *Collector) touch(now int64) { c.touchStamps(now+1, now+1) }

// touchStamps widens the event bounds to cover [first, last], both given
// as Now()+1 stamps.
func (c *Collector) touchStamps(first, last int64) {
	for {
		cur := c.firstNs.Load()
		if cur != 0 && cur <= first {
			break
		}
		if c.firstNs.CompareAndSwap(cur, first) {
			break
		}
	}
	for {
		cur := c.lastNs.Load()
		if cur >= last {
			break
		}
		if c.lastNs.CompareAndSwap(cur, last) {
			break
		}
	}
}

// stageLocked returns the named stage, creating it in first-seen order
// (c.mu held).
func (c *Collector) stageLocked(name string) *stage {
	st, ok := c.stages[name]
	if !ok {
		st = &stage{StageReport: StageReport{Name: name}}
		c.stages[name] = st
		c.order = append(c.order, name)
	}
	return st
}

func (c *Collector) StartSpan(name string, attrs ...Attr) Span {
	return c.startSpan(name, 0, 0, attrs)
}

func (c *Collector) startSpan(name string, parent, root uint64, attrs []Attr) *collectorSpan {
	now := Now()
	c.touch(now)
	id := nextSpanID.Add(1)
	if root == 0 {
		root = id
	}
	c.mu.Lock()
	c.stageLocked(name).open++
	c.mu.Unlock()
	c.journal.append(now, Event{Type: "span_start", Name: name, Span: id, Parent: parent, Attrs: attrs})
	s := &collectorSpan{c: c, id: id, parent: parent, root: root, name: name, startNs: now}
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	return s
}

// collectorSpan is a live span; End moves it into the Collector's records.
type collectorSpan struct {
	c       *Collector
	id      uint64
	parent  uint64
	root    uint64
	name    string
	startNs int64

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

func (s *collectorSpan) End() {
	now := Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	s.c.touch(now)
	dur := now - s.startNs
	s.c.mu.Lock()
	st := s.c.stages[s.name]
	st.open--
	st.Calls++
	st.WallNs += dur
	if len(s.c.spans) < spanLimit {
		s.c.spans = append(s.c.spans, SpanRecord{
			ID: s.id, Parent: s.parent, Root: s.root,
			Name: s.name, StartNs: s.startNs, DurNs: dur, Attrs: attrs,
		})
	} else {
		s.c.spansDropped++
	}
	s.c.mu.Unlock()
	s.c.journal.append(now, Event{Type: "span_end", Name: s.name, Span: s.id, WallNs: dur})
}

func (s *collectorSpan) SetAttr(key, value string) {
	s.mu.Lock()
	i := 0
	for i < len(s.attrs) && s.attrs[i].Key != key {
		i++
	}
	if i == len(s.attrs) {
		s.attrs = append(s.attrs, Attr{Key: key})
	}
	s.attrs[i].Value = value
	s.mu.Unlock()
	s.c.journal.append(Now(), Event{Type: "span_attr", Name: s.name, Span: s.id, Attrs: []Attr{{Key: key, Value: value}}})
}

func (s *collectorSpan) Child(name string, attrs ...Attr) Span {
	return s.c.startSpan(name, s.id, s.root, attrs)
}

func (c *Collector) Count(name string, delta int64) {
	now := Now()
	c.touch(now)
	c.mu.Lock()
	c.counters[name] += delta
	c.mu.Unlock()
	c.journal.append(now, Event{Type: "count", Name: name, Delta: delta})
}

// Progress keeps high-water marks only (the report has no per-tick
// history; progress is a live signal, not an aggregate): done as the
// "progress.<stage>" counter, and done/total on the stage's report once a
// span of that stage has started.
func (c *Collector) Progress(stage string, done, total int64) {
	now := Now()
	c.touch(now)
	c.mu.Lock()
	if cur := c.counters["progress."+stage]; done > cur {
		c.counters["progress."+stage] = done
	}
	if st := c.stages[stage]; st != nil {
		st.Done = max(st.Done, done)
		st.Total = max(st.Total, total)
	}
	c.mu.Unlock()
	c.journal.append(now, Event{Type: "progress", Name: stage, Done: done, Total: total})
}

// Observe records one sample into the named histogram, creating it on
// first use. The fast path is a read-locked map lookup plus two atomic
// adds, so hunt workers can observe per-chunk latencies concurrently.
func (c *Collector) Observe(name string, value int64) {
	now := Now()
	c.touch(now)
	c.histogram(name).Observe(value)
	c.journal.append(now, Event{Type: "observe", Name: name, Value: value})
}

// histogram returns the named histogram, creating it on first use.
func (c *Collector) histogram(name string) *Histogram {
	c.hmu.RLock()
	h := c.hists[name]
	c.hmu.RUnlock()
	if h != nil {
		return h
	}
	c.hmu.Lock()
	defer c.hmu.Unlock()
	if h = c.hists[name]; h == nil {
		h = &Histogram{}
		c.hists[name] = h
		c.horder = append(c.horder, name)
	}
	return h
}

// Histogram returns the named histogram, or nil if nothing has been
// observed under that name yet.
func (c *Collector) Histogram(name string) *Histogram {
	c.hmu.RLock()
	defer c.hmu.RUnlock()
	return c.hists[name]
}

// Spans snapshots the completed span records collected so far, in end
// order.
func (c *Collector) Spans() []SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SpanRecord, len(c.spans))
	copy(out, c.spans)
	return out
}

// Report snapshots the aggregates and the span records collected so far.
func (c *Collector) Report() Report {
	r := c.Summary()
	r.Spans = c.Spans()
	return r
}

// Summary is Report without the span records: the aggregates a status
// poll or a metrics scrape reads, at a cost independent of trace size.
// Stages come back in first-start order.
func (c *Collector) Summary() Report {
	c.mu.Lock()
	r := Report{
		Counters:     make(map[string]int64, len(c.counters)),
		SpansDropped: c.spansDropped,
	}
	r.Stages = c.stagesLocked()
	for k, v := range c.counters {
		r.Counters[k] = v
	}
	c.mu.Unlock()

	c.hmu.RLock()
	for _, name := range c.horder {
		r.Histograms = append(r.Histograms, c.hists[name].Snapshot(name))
	}
	c.hmu.RUnlock()
	r.firstNs, r.lastNs = c.firstNs.Load(), c.lastNs.Load()
	if r.firstNs != 0 && r.lastNs > r.firstNs {
		r.TotalNs = r.lastNs - r.firstNs
	}
	return r
}

// Stages snapshots the stage table in first-start order: what a status
// poll reads, without the counters and histogram snapshots of Summary.
func (c *Collector) Stages() []StageReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stagesLocked()
}

func (c *Collector) stagesLocked() []StageReport {
	out := make([]StageReport, 0, len(c.order))
	for _, name := range c.order {
		st := c.stages[name]
		s := st.StageReport
		s.Running = st.open > 0
		s.WallMs = float64(s.WallNs) / 1e6
		out = append(out, s)
	}
	return out
}

// Counters snapshots the counters named prefix+key, keyed by key.
func (c *Collector) Counters(prefix string) map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64)
	for name, n := range c.counters {
		if key, ok := strings.CutPrefix(name, prefix); ok {
			out[key] = n
		}
	}
	return out
}

// merge is the one routine that folds foreign aggregates into the
// collector — a finished job's summary or a worker's shipped telemetry:
// stage calls and wall time add, stage progress keeps the higher mark,
// counters add except the "progress." high-water marks (which keep the
// higher mark too), histograms merge bucket for bucket, dropped spans add,
// and the observed time range widens to cover both. Spans are not merged.
// Each added counter is journaled as one count event of its whole value.
func (c *Collector) merge(r Report) {
	c.mu.Lock()
	for _, s := range r.Stages {
		st := c.stageLocked(s.Name)
		st.Calls += s.Calls
		st.WallNs += s.WallNs
		st.Done = max(st.Done, s.Done)
		st.Total = max(st.Total, s.Total)
	}
	for k, v := range r.Counters {
		if strings.HasPrefix(k, "progress.") {
			c.counters[k] = max(c.counters[k], v)
		} else {
			c.counters[k] += v
		}
	}
	c.spansDropped += r.SpansDropped
	c.mu.Unlock()
	for _, h := range r.Histograms {
		c.MergeHistogram(h.Name, h)
	}
	if r.firstNs != 0 {
		c.touchStamps(r.firstNs, r.lastNs)
	}
	if c.journal != nil {
		now := Now()
		for k, v := range r.Counters {
			if !strings.HasPrefix(k, "progress.") {
				c.journal.append(now, Event{Type: "count", Name: k, Delta: v})
			}
		}
	}
}

// Fold adds src's aggregates (stage calls, wall time and progress marks,
// counters, histograms, the span-drop count, and the observed time range)
// into c. Spans stay in src. Folding the same collector twice counts it
// twice, so a caller folds each source exactly once.
func (c *Collector) Fold(src *Collector) { c.merge(src.Summary()) }

// WriteJSON writes the report as indented JSON.
func (c *Collector) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(c.Report(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
