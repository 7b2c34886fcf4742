package obs

import (
	"encoding/json"
	"io"
	"sort"
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

// StageReport is one stage's aggregate in a Collector report. A stage that
// ran more than once (per-shard hunts) accumulates calls and wall time.
type StageReport struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	WallNs int64   `json:"wall_ns"`
	WallMs float64 `json:"wall_ms"`
}

// SpanRecord is one completed span in the Collector's trace tree. IDs are
// assigned in start order and are unique within the Collector; Parent is 0
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
}

// Collector aggregates pipeline events into a Report. The zero value is
// not usable; call NewCollector.
type Collector struct {
	mu           sync.Mutex
	order        []string                // guarded by mu
	stages       map[string]*StageReport // guarded by mu
	counters     map[string]int64        // guarded by mu
	spans        []SpanRecord            // guarded by mu
	spansDropped int64                   // guarded by mu
	nextSpanID   atomic.Uint64

	// firstNs/lastNs hold Now()+1 so zero means "unset"; every hook
	// touches them, so a Count/Progress-only run still reports TotalNs.
	firstNs atomic.Int64
	lastNs  atomic.Int64

	hmu    sync.RWMutex
	hists  map[string]*Histogram // guarded by hmu
	horder []string              // guarded by hmu
}

// NewCollector returns an empty Collector ready for use as a Tracer.
func NewCollector() *Collector {
	return &Collector{
		stages:   make(map[string]*StageReport),
		counters: make(map[string]int64),
		hists:    make(map[string]*Histogram),
	}
}

// touch folds a timestamp into the first/last event bounds.
func (c *Collector) touch(now int64) {
	stamp := now + 1
	for {
		first := c.firstNs.Load()
		if first != 0 && first <= stamp {
			break
		}
		if c.firstNs.CompareAndSwap(first, stamp) {
			break
		}
	}
	for {
		last := c.lastNs.Load()
		if last >= stamp {
			break
		}
		if c.lastNs.CompareAndSwap(last, stamp) {
			break
		}
	}
}

func (c *Collector) StartSpan(name string, attrs ...Attr) Span {
	return c.startSpan(name, 0, 0, attrs)
}

func (c *Collector) startSpan(name string, parent, root uint64, attrs []Attr) *collectorSpan {
	now := Now()
	c.touch(now)
	id := c.nextSpanID.Add(1)
	if root == 0 {
		root = id
	}
	c.mu.Lock()
	if _, ok := c.stages[name]; !ok {
		c.stages[name] = &StageReport{Name: name}
		c.order = append(c.order, name)
	}
	c.mu.Unlock()
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
}

func (s *collectorSpan) SetAttr(key, value string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

func (s *collectorSpan) Child(name string, attrs ...Attr) Span {
	return s.c.startSpan(name, s.id, s.root, attrs)
}

func (c *Collector) Count(name string, delta int64) {
	c.touch(Now())
	c.mu.Lock()
	c.counters[name] += delta
	c.mu.Unlock()
}

// Progress is recorded only as a counter high-water mark (the report has no
// per-tick history; progress is a live signal, not an aggregate).
func (c *Collector) Progress(stage string, done, total int64) {
	c.touch(Now())
	c.mu.Lock()
	if cur := c.counters["progress."+stage]; done > cur {
		c.counters["progress."+stage] = done
	}
	c.mu.Unlock()
}

// Observe records one sample into the named histogram, creating it on
// first use. The fast path is a read-locked map lookup plus two atomic
// adds, so hunt workers can observe per-chunk latencies concurrently.
func (c *Collector) Observe(name string, value int64) {
	c.touch(Now())
	c.hmu.RLock()
	h := c.hists[name]
	c.hmu.RUnlock()
	if h == nil {
		c.hmu.Lock()
		h = c.hists[name]
		if h == nil {
			h = &Histogram{}
			c.hists[name] = h
			c.horder = append(c.horder, name)
		}
		c.hmu.Unlock()
	}
	h.Observe(value)
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

// Report snapshots the aggregates collected so far.
func (c *Collector) Report() Report {
	c.mu.Lock()
	r := Report{Counters: make(map[string]int64, len(c.counters))}
	for _, name := range c.order {
		s := *c.stages[name]
		s.WallMs = float64(s.WallNs) / 1e6
		r.Stages = append(r.Stages, s)
	}
	names := make([]string, 0, len(c.counters))
	for k := range c.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		r.Counters[k] = c.counters[k]
	}
	r.Spans = make([]SpanRecord, len(c.spans))
	copy(r.Spans, c.spans)
	r.SpansDropped = c.spansDropped
	c.mu.Unlock()

	c.hmu.RLock()
	for _, name := range c.horder {
		r.Histograms = append(r.Histograms, c.hists[name].Snapshot(name))
	}
	c.hmu.RUnlock()

	first, last := c.firstNs.Load(), c.lastNs.Load()
	if first != 0 && last > first {
		r.TotalNs = last - first
	}
	return r
}

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
