package obs

import "sync"

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

// defaultJournalCap bounds a Journal when NewJournaledCollector is given a
// non-positive capacity.
const defaultJournalCap = 4096

// Journal is a bounded ring buffer of recent telemetry events: the event
// view of a Collector made by NewJournaledCollector, which appends every
// hook to it under the span IDs of its own records. Readers poll ReadSince
// with a cursor and park on Updated between polls. When writers outpace a
// reader the oldest events are overwritten and the reader observes a gap
// (the missed count from ReadSince), never a stall.
type Journal struct {
	mu          sync.Mutex
	ring        []Event       // guarded by mu
	total       uint64        // events ever appended; Seq of the newest event; guarded by mu
	overwritten uint64        // events lost to ring wrap before any read; guarded by mu
	closed      bool          // guarded by mu
	notify      chan struct{} // guarded by mu
}

// newJournal returns a Journal retaining up to capacity recent events
// (defaultJournalCap when capacity <= 0).
func newJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = defaultJournalCap
	}
	return &Journal{
		ring:   make([]Event, 0, capacity),
		notify: make(chan struct{}),
	}
}

// append stores one event stamped at the given obs.Now time, waking any
// parked readers. A nil journal (a Collector without one) drops it.
func (j *Journal) append(at int64, e Event) {
	if j == nil {
		return
	}
	e.AtNs = at
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
