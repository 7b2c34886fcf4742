package obs

import (
	"sync"
	"sync/atomic"
)

// Event is one telemetry event in a Journal. Seq numbers start at 1 and
// are dense; AtNs is the event time on the obs.Now clock. Type selects
// which of the remaining fields are meaningful.
type Event struct {
	Seq  uint64 `json:"seq"`
	AtNs int64  `json:"at_ns"`
	// Type is one of "span_start", "span_end", "span_attr", "count",
	// "progress", "observe".
	Type string `json:"type"`
	// Name is the span, counter, stage, or histogram name.
	Name string `json:"name"`

	// Progress payload.
	Done  int64 `json:"done,omitempty"`
	Total int64 `json:"total,omitempty"`
	// Count payload.
	Delta int64 `json:"delta,omitempty"`
	// Observe payload.
	Value int64 `json:"value,omitempty"`
	// Span payload: WallNs on span_end, Attrs on span_start/span_attr.
	WallNs int64  `json:"wall_ns,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Attrs  []Attr `json:"attrs,omitempty"`
}

// defaultJournalCap bounds a Journal when NewJournal is given a
// non-positive capacity.
const defaultJournalCap = 4096

// Journal is a bounded ring buffer of recent telemetry events. It
// implements Tracer, so it slots into an obs.Multi alongside a Collector;
// readers poll ReadSince with a cursor and park on Updated between polls.
// When writers outpace a reader the oldest events are overwritten and the
// reader observes a gap (the missed count from ReadSince), never a stall.
type Journal struct {
	mu          sync.Mutex
	ring        []Event       // guarded by mu
	total       uint64        // events ever appended; Seq of the newest event; guarded by mu
	overwritten uint64        // events lost to ring wrap before any read; guarded by mu
	closed      bool          // guarded by mu
	notify      chan struct{} // guarded by mu
	nextSpan    atomic.Uint64
}

// NewJournal returns a Journal retaining up to capacity recent events
// (defaultJournalCap when capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = defaultJournalCap
	}
	return &Journal{
		ring:   make([]Event, 0, capacity),
		notify: make(chan struct{}),
	}
}

// append stamps and stores one event, waking any parked readers.
func (j *Journal) append(e Event) {
	e.AtNs = Now()
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	j.total++
	e.Seq = j.total
	if len(j.ring) < cap(j.ring) {
		j.ring = append(j.ring, e)
	} else {
		j.overwritten++
		j.ring[(j.total-1)%uint64(cap(j.ring))] = e
	}
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// Updated returns a channel that is closed on the next append or Close.
// Fetch it BEFORE calling ReadSince: events landing between a ReadSince
// and a later Updated call would otherwise be missed until the following
// append.
func (j *Journal) Updated() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.notify
}

// ReadSince returns up to max events with Seq > cursor, in order, plus the
// number of events that were overwritten before they could be read (the
// reader's gap). max <= 0 means no limit.
func (j *Journal) ReadSince(cursor uint64, max int) (events []Event, missed uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.total == 0 || cursor >= j.total {
		return nil, 0
	}
	oldest := j.total - uint64(len(j.ring)) + 1
	from := cursor + 1
	if from < oldest {
		missed = oldest - from
		from = oldest
	}
	n := int(j.total - from + 1)
	if max > 0 && n > max {
		n = max
	}
	events = make([]Event, 0, n)
	for i := 0; i < n; i++ {
		seq := from + uint64(i)
		if len(j.ring) < cap(j.ring) {
			events = append(events, j.ring[seq-1])
		} else {
			events = append(events, j.ring[(seq-1)%uint64(cap(j.ring))])
		}
	}
	return events, missed
}

// Close marks the journal complete (the job finished): appends become
// no-ops and parked readers wake. Safe to call more than once.
func (j *Journal) Close() {
	j.mu.Lock()
	if !j.closed {
		j.closed = true
		close(j.notify)
		j.notify = make(chan struct{})
	}
	j.mu.Unlock()
}

// Closed reports whether Close has been called.
func (j *Journal) Closed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.closed
}

// Overwritten returns how many events have been lost to ring wrap over the
// journal's lifetime. A nonzero value means at least one reader gap was
// possible; /metrics exposes the sum across journals so operators can size
// the ring instead of guessing from missing events.
func (j *Journal) Overwritten() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.overwritten
}

// Journal implements Tracer by recording each hook as an Event.

func (j *Journal) StartSpan(name string, attrs ...Attr) Span { return j.span(name, 0, attrs) }

func (j *Journal) span(name string, parent uint64, attrs []Attr) *journalSpan {
	id := j.nextSpan.Add(1)
	j.append(Event{Type: "span_start", Name: name, Span: id, Parent: parent, Attrs: attrs})
	return &journalSpan{j: j, id: id, name: name, startNs: Now()}
}

func (j *Journal) Count(name string, delta int64) {
	j.append(Event{Type: "count", Name: name, Delta: delta})
}

func (j *Journal) Progress(stage string, done, total int64) {
	j.append(Event{Type: "progress", Name: stage, Done: done, Total: total})
}

func (j *Journal) Observe(name string, value int64) {
	j.append(Event{Type: "observe", Name: name, Value: value})
}

type journalSpan struct {
	j       *Journal
	id      uint64
	name    string
	startNs int64
	ended   atomic.Bool
}

func (s *journalSpan) End() {
	if s.ended.Swap(true) {
		return
	}
	s.j.append(Event{Type: "span_end", Name: s.name, Span: s.id, WallNs: Since(s.startNs)})
}

func (s *journalSpan) SetAttr(key, value string) {
	s.j.append(Event{Type: "span_attr", Name: s.name, Span: s.id, Attrs: []Attr{{Key: key, Value: value}}})
}

func (s *journalSpan) Child(name string, attrs ...Attr) Span {
	return s.j.span(name, s.id, attrs)
}
