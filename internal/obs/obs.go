// Package obs provides the attack pipeline's lightweight observability
// hooks: hierarchical spans (a pipeline stage is a span), monotonic
// counters, progress reports, and latency histograms. The zero-cost
// default is the Nop tracer, so instrumented code never branches on "is
// tracing on?"; a Collector aggregates events into a JSON report and a
// span tree (what `coldboot -trace out.json` and `-trace-chrome
// out.json` write) and can keep a Journal, a bounded ring of its recent
// events for live streaming, and Funcs adapts ad-hoc callbacks (what
// `-progress` uses).
//
// The package deliberately knows nothing about the attack: span,
// counter, and histogram names are plain strings chosen by the
// instrumented code, so the same hooks can observe future pipelines
// (sharded serving, remote campaigns) without changing this API.
package obs

import "time"

// Tracer observes a pipeline run. Implementations must be safe for
// concurrent use: the hunt stage calls Count, Progress, and Observe from
// every worker goroutine.
type Tracer interface {
	// StartSpan opens a root span: a named, attributed slice of wall time.
	// Child spans hang off the returned Span, forming the causal tree a
	// Collector exports as a Chrome trace. Attrs annotate the span with
	// string key/value pairs (shard index, offset range, decay level).
	// Pipeline stages are spans; names may nest and repeat (a campaign
	// runs the hunt stage once per shard).
	StartSpan(name string, attrs ...Attr) Span
	// Count adds delta to the named monotonic counter.
	Count(name string, delta int64)
	// Progress reports that done of total work units have completed in the
	// named stage. Total may be 0 when unknown.
	Progress(stage string, done, total int64)
	// Observe records one sample into the named latency histogram. By
	// convention values are nanoseconds and names end in "_ns" (the
	// Prometheus exporter renders them as native *_seconds histograms).
	Observe(name string, value int64)
}

// Span is one node of a trace tree: end it exactly once, attach string
// attributes, and open children under it.
type Span interface {
	// End closes the span.
	End()
	// SetAttr attaches (or overwrites) a string attribute.
	SetAttr(key, value string)
	// Child opens a sub-span parented under this one.
	Child(name string, attrs ...Attr) Span
}

// Attr is one string key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A is shorthand for constructing an Attr at a span call site.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Nop is the no-op tracer: every hook is a cheap dynamic call that does
// nothing — no branches, no allocations — so hot loops can call it
// unconditionally. It is the default everywhere a Tracer is accepted.
var Nop Tracer = nopTracer{}

type nopTracer struct{}
type nopSpan struct{}

func (nopTracer) StartSpan(string, ...Attr) Span { return nopSpan{} }
func (nopTracer) Count(string, int64)            {}
func (nopTracer) Progress(string, int64, int64)  {}
func (nopTracer) Observe(string, int64)          {}
func (nopSpan) End()                             {}
func (nopSpan) SetAttr(string, string)           {}
func (nopSpan) Child(string, ...Attr) Span       { return nopSpan{} }

// OrNop returns t, or the Nop tracer when t is nil, so config structs can
// leave their Tracer field unset.
func OrNop(t Tracer) Tracer {
	if t == nil {
		return Nop
	}
	return t
}

// Multi fans every event out to all the given tracers (e.g. a Collector
// for -trace plus a Funcs printer for -progress). Nil entries are skipped.
func Multi(tracers ...Tracer) Tracer {
	var ts []Tracer
	for _, t := range tracers {
		if t != nil && t != Nop {
			ts = append(ts, t)
		}
	}
	switch len(ts) {
	case 0:
		return Nop
	case 1:
		return ts[0]
	}
	return multiTracer(ts)
}

type multiTracer []Tracer

type multiSpan []Span

func (m multiTracer) StartSpan(name string, attrs ...Attr) Span {
	spans := make(multiSpan, len(m))
	for i, t := range m {
		spans[i] = t.StartSpan(name, attrs...)
	}
	return spans
}

func (m multiTracer) Count(name string, delta int64) {
	for _, t := range m {
		t.Count(name, delta)
	}
}

func (m multiTracer) Progress(stage string, done, total int64) {
	for _, t := range m {
		t.Progress(stage, done, total)
	}
}

func (m multiTracer) Observe(name string, value int64) {
	for _, t := range m {
		t.Observe(name, value)
	}
}

func (m multiSpan) End() {
	for _, s := range m {
		s.End()
	}
}

func (m multiSpan) SetAttr(key, value string) {
	for _, s := range m {
		s.SetAttr(key, value)
	}
}

func (m multiSpan) Child(name string, attrs ...Attr) Span {
	spans := make(multiSpan, len(m))
	for i, s := range m {
		spans[i] = s.Child(name, attrs...)
	}
	return spans
}

// Funcs adapts plain callbacks to a Tracer; nil fields are no-ops. Useful
// for one-off hooks (progress printers, cancellation triggers in tests).
// Spans map onto the stage callbacks: StartSpan and Child fire
// OnStageStart/OnStageEnd under the span's name, so a Funcs bridge sees
// the span tree as a flat stage stream.
type Funcs struct {
	OnStageStart func(name string)
	OnStageEnd   func(name string, wall time.Duration)
	OnCount      func(name string, delta int64)
	OnProgress   func(stage string, done, total int64)
	OnObserve    func(name string, value int64)
}

func (f *Funcs) StartSpan(name string, attrs ...Attr) Span {
	if f.OnStageStart == nil && f.OnStageEnd == nil {
		return nopSpan{}
	}
	if f.OnStageStart != nil {
		f.OnStageStart(name)
	}
	return &funcSpan{f: f, name: name, start: time.Now()}
}

func (f *Funcs) Count(name string, delta int64) {
	if f.OnCount != nil {
		f.OnCount(name, delta)
	}
}

func (f *Funcs) Progress(stage string, done, total int64) {
	if f.OnProgress != nil {
		f.OnProgress(stage, done, total)
	}
}

func (f *Funcs) Observe(name string, value int64) {
	if f.OnObserve != nil {
		f.OnObserve(name, value)
	}
}

type funcSpan struct {
	f     *Funcs
	name  string
	start time.Time
}

func (s *funcSpan) End() {
	if s.f.OnStageEnd != nil {
		s.f.OnStageEnd(s.name, time.Since(s.start))
	}
}

func (s *funcSpan) SetAttr(string, string) {}

func (s *funcSpan) Child(name string, attrs ...Attr) Span { return s.f.StartSpan(name, attrs...) }
