package obs

import (
	"fmt"
	"math/bits"
	"strings"
)

// Telemetry shipping: the worker side of distributed tracing serializes a
// Collector's accumulated state (span tree, counters, histogram buckets)
// into a Telemetry document, posts it over the fleet wire, and the
// coordinator grafts it into the campaign's Collector — remapping span IDs,
// re-parenting the foreign roots under a local span, and applying a clock
// correction so the merged tree stays monotonic despite per-process
// obs.Now timebases.

// Telemetry is the wire-serializable snapshot of a Collector: everything a
// worker attaches to a shard completion. Span attrs and events travel
// verbatim, so the keyflow contract applies: no raw key bytes may ever be
// written into a span attribute — only sha256: fingerprints.
type Telemetry struct {
	Spans        []SpanRecord        `json:"spans,omitempty"`
	SpansDropped int64               `json:"spans_dropped,omitempty"`
	Counters     map[string]int64    `json:"counters,omitempty"`
	Histograms   []HistogramSnapshot `json:"histograms,omitempty"`
}

// Telemetry snapshots the collector's completed spans, counters, and
// histograms for shipping. Live (unended) spans are not included.
func (c *Collector) Telemetry() Telemetry {
	r := c.Summary()
	return Telemetry{Spans: c.Spans(), SpansDropped: r.SpansDropped, Counters: r.Counters, Histograms: r.Histograms}
}

// Check reports whether t could come from a Collector's Telemetry: no
// more spans than a collector retains, and no more counters or
// histograms than that either; unique nonzero span IDs; no negative
// durations, counters or drop count; and histogram buckets on the
// power-of-two bounds with non-negative, non-decreasing cumulative
// counts. A receiver checks a foreign document before it Grafts one,
// whose histogram merge indexes buckets by their bounds.
func (t *Telemetry) Check() error {
	if len(t.Spans) > spanLimit || len(t.Counters) > spanLimit || len(t.Histograms) > spanLimit {
		return fmt.Errorf("obs: telemetry of %d spans, %d counters and %d histograms exceeds %d of each",
			len(t.Spans), len(t.Counters), len(t.Histograms), spanLimit)
	}
	if t.SpansDropped < 0 {
		return fmt.Errorf("obs: telemetry drops %d spans", t.SpansDropped)
	}
	ids := make(map[uint64]bool, len(t.Spans))
	for _, s := range t.Spans {
		if s.ID == 0 || ids[s.ID] || s.DurNs < 0 {
			return fmt.Errorf("obs: telemetry span %q has id %d and duration %d", s.Name, s.ID, s.DurNs)
		}
		ids[s.ID] = true
	}
	for k, v := range t.Counters {
		if v < 0 {
			return fmt.Errorf("obs: telemetry counter %q is %d", k, v)
		}
	}
	for _, h := range t.Histograms {
		if len(h.Buckets) > histBuckets || h.Count < 0 || h.Sum < 0 {
			return fmt.Errorf("obs: telemetry histogram %q has %d buckets, count %d and sum %d", h.Name, len(h.Buckets), h.Count, h.Sum)
		}
		prev := HistogramBucket{UpperBound: -1}
		for _, b := range h.Buckets {
			_, hi := bucketBounds(bits.Len64(uint64(b.UpperBound)))
			if b.UpperBound < 0 || hi != b.UpperBound || b.UpperBound <= prev.UpperBound || b.Count < max(prev.Count, 0) {
				return fmt.Errorf("obs: telemetry histogram %q has bucket le=%d count=%d", h.Name, b.UpperBound, b.Count)
			}
			prev = b
		}
	}
	return nil
}

// GraftOptions places a foreign span tree inside this collector's trace.
type GraftOptions struct {
	// Parent is the local span ID the foreign root spans are adopted by
	// (typically the shard's lease span). Zero leaves them as roots.
	Parent uint64
	// Root is the local tree ID stamped on every grafted span, so the
	// merged campaign is one tree. Zero keeps per-batch roots.
	Root uint64
	// Track names the timeline the grafted spans render on (the worker
	// name); the Chrome exporter gives each track its own named lane.
	Track string
	// OffsetNs is the clock correction added to every grafted StartNs: the
	// estimated difference between this process's obs.Now and the origin
	// process's, derived from lease/heartbeat round-trips.
	OffsetNs int64
	// MinNs is the monotonic floor: if the corrected batch would start
	// before it (residual skew), the whole batch shifts uniformly so its
	// earliest span starts exactly at MinNs. Relative timing within the
	// batch is always preserved.
	MinNs int64
}

// Graft merges a telemetry snapshot into the collector: span IDs are
// remapped into the process-wide ID space, foreign roots are re-parented
// under opts.Parent, timestamps get the clock correction, and the origin's
// counters, histograms, and per-span stage aggregates fold in through the
// same merge a finished job's collector takes. The origin's "progress."
// marks are dropped: they measure its shard, not this collector's run.
// The collector's journal gets each grafted span as a span_start and a
// span_end event and each counter as one count event; histogram samples
// are not journaled. Returns the number of spans grafted (spans past the
// retention cap are counted in SpansDropped instead).
func (c *Collector) Graft(tel Telemetry, opts GraftOptions) int {
	shift := opts.OffsetNs
	if len(tel.Spans) > 0 {
		minStart := tel.Spans[0].StartNs
		for _, s := range tel.Spans[1:] {
			if s.StartNs < minStart {
				minStart = s.StartNs
			}
		}
		if minStart+shift < opts.MinNs {
			shift = opts.MinNs - minStart
		}
	}

	idmap := make(map[uint64]uint64, len(tel.Spans))
	for _, s := range tel.Spans {
		idmap[s.ID] = nextSpanID.Add(1)
	}

	agg := Report{
		Counters:     make(map[string]int64, len(tel.Counters)),
		Histograms:   tel.Histograms,
		SpansDropped: tel.SpansDropped,
	}
	for k, v := range tel.Counters {
		if !strings.HasPrefix(k, "progress.") {
			agg.Counters[k] = v
		}
	}
	stageIdx := make(map[string]int)
	recs := make([]SpanRecord, 0, len(tel.Spans))
	for _, s := range tel.Spans {
		r := s
		r.ID = idmap[s.ID]
		if p, ok := idmap[s.Parent]; s.Parent != 0 && ok {
			r.Parent = p
		} else {
			// A foreign root — or an orphan whose parent fell past the
			// origin's span cap — hangs off the adopting span.
			r.Parent = opts.Parent
		}
		if opts.Root != 0 {
			r.Root = opts.Root
		} else if rid, ok := idmap[s.Root]; ok {
			r.Root = rid
		}
		if opts.Track != "" {
			r.Track = opts.Track
		}
		r.StartNs += shift
		i, ok := stageIdx[r.Name]
		if !ok {
			i = len(agg.Stages)
			stageIdx[r.Name] = i
			agg.Stages = append(agg.Stages, StageReport{Name: r.Name})
		}
		agg.Stages[i].Calls++
		agg.Stages[i].WallNs += r.DurNs
		if first := r.StartNs + 1; agg.firstNs == 0 || first < agg.firstNs {
			agg.firstNs = first
		}
		agg.lastNs = max(agg.lastNs, r.StartNs+r.DurNs+1)
		recs = append(recs, r)
	}
	c.mu.Lock()
	grafted := min(len(recs), spanLimit-len(c.spans))
	c.spans = append(c.spans, recs[:grafted]...)
	c.mu.Unlock()
	agg.SpansDropped += int64(len(recs) - grafted)
	if c.journal != nil {
		// Shipped spans come in end order, children before parents, so
		// reversed they open parents first.
		now := Now()
		for i := grafted - 1; i >= 0; i-- {
			r := recs[i]
			c.journal.append(now, Event{Type: "span_start", Name: r.Name, Span: r.ID, Parent: r.Parent, Attrs: r.Attrs})
		}
		for _, r := range recs[:grafted] {
			c.journal.append(now, Event{Type: "span_end", Name: r.Name, Span: r.ID, WallNs: r.DurNs})
		}
	}
	c.merge(agg)
	return grafted
}

// MergeHistogram folds a histogram snapshot into the named local
// histogram, creating it on first use. Snapshot buckets are cumulative;
// the merge reconstructs per-bucket deltas, and the power-of-two bucket
// layout makes the bucket index recoverable from each upper bound — so a
// merge of exact snapshots is exact, not an approximation.
func (c *Collector) MergeHistogram(name string, snap HistogramSnapshot) {
	if snap.Count == 0 {
		return
	}
	c.histogram(name).merge(snap)
}

// merge adds a snapshot's samples into the histogram bucket-for-bucket.
func (h *Histogram) merge(s HistogramSnapshot) {
	var prev int64
	for _, b := range s.Buckets {
		d := b.Count - prev
		prev = b.Count
		if d <= 0 {
			continue
		}
		// Invert bucketBounds: bucket 0 has bound 0, bucket i>=1 has bound
		// 2^i-1, bucket 63 tops out at MaxInt64 — all recover their index
		// through bits.Len64.
		h.buckets[bits.Len64(uint64(b.UpperBound))].Add(d)
	}
	h.sum.Add(s.Sum)
}

// SpanID resolves a Span back to its record ID in this collector, seeing
// through the Multi fan-out wrapper. Zero means the span is not one of
// this collector's (a Nop, Funcs, or foreign-collector span).
func (c *Collector) SpanID(s Span) uint64 {
	id, _ := c.SpanContext(s)
	return id
}

// SpanContext resolves a Span to its (id, tree root) in this collector,
// seeing through Multi. Both are zero when the span is not ours.
func (c *Collector) SpanContext(s Span) (id, root uint64) {
	switch x := s.(type) {
	case *collectorSpan:
		if x.c == c {
			return x.id, x.root
		}
	case multiSpan:
		for _, sub := range x {
			if id, root = c.SpanContext(sub); id != 0 {
				return id, root
			}
		}
	}
	return 0, 0
}

// FindCollector digs the first Collector out of a tracer, seeing through
// the Multi fan-out wrapper. Nil when the tracer has no Collector.
func FindCollector(t Tracer) *Collector {
	switch x := t.(type) {
	case *Collector:
		return x
	case multiTracer:
		for _, sub := range x {
			if c := FindCollector(sub); c != nil {
				return c
			}
		}
	}
	return nil
}
