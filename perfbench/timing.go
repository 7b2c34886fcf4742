package main

import (
	"context"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coldboot/internal/obs"
)

// recorder keeps the traced run's spans in memory; they are written out as
// Chrome Trace Event JSON when the run ends. A nil *recorder records
// nothing.
type recorder struct {
	base time.Time
	mu   sync.Mutex
	next uint64
	// spans is guarded by mu.
	spans []obs.SpanRecord
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// newID reserves a span ID, so a parent can be named before it ends.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records one completed span under id (0 reserves a fresh one) and
// returns its ID.
func (r *recorder) add(id, parent uint64, track, name string, start time.Time, dur time.Duration, attrs ...obs.Attr) uint64 {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.newID()
	}
	root := parent
	if root == 0 {
		root = id
	}
	r.mu.Lock()
	r.spans = append(r.spans, obs.SpanRecord{
		ID: id, Parent: parent, Root: root, Track: track, Name: name,
		StartNs: start.Sub(r.base).Nanoseconds(), DurNs: dur.Nanoseconds(), Attrs: attrs,
	})
	r.mu.Unlock()
	return id
}

// writeFile writes the recorded spans to path.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	spans := append([]obs.SpanRecord(nil), r.spans...)
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = obs.WriteChromeTraceSpans(f, spans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// spanKey carries the enclosing span (a job) on a request context, so the
// timing transport parents its call spans under it.
type spanKey struct{}

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// callStats aggregates one endpoint's calls.
type callStats struct {
	durs   []time.Duration
	bytes  int64       // response body bytes read
	status map[int]int // responses by status code
}

// timingTransport is the outside-in timing layer: an http.RoundTripper
// wrapped around the benchmark client's and every fleet worker's
// transport. It times each exchange from request to response-body close,
// keyed by endpoint pattern, counts responses by status code, and records
// a span per call. Until enabled it only forwards.
type timingTransport struct {
	next    http.RoundTripper
	rec     *recorder
	track   string
	enabled *atomic.Bool
	stats   *endpointStats
}

// endpointStats is shared by every timingTransport of a run.
type endpointStats struct {
	mu sync.Mutex
	// calls is guarded by mu.
	calls map[string]*callStats
}

func newEndpointStats() *endpointStats {
	return &endpointStats{calls: make(map[string]*callStats)}
}

func (s *endpointStats) record(pattern string, code int, d time.Duration, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.calls[pattern]
	if c == nil {
		c = &callStats{status: make(map[int]int)}
		s.calls[pattern] = c
	}
	c.durs = append(c.durs, d)
	c.bytes += n
	if code != 0 {
		c.status[code]++
	}
}

// snapshot copies one endpoint's durations and byte count.
func (s *endpointStats) snapshot(pattern string) ([]time.Duration, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.calls[pattern]
	if c == nil {
		return nil, 0
	}
	return append([]time.Duration(nil), c.durs...), c.bytes
}

// statusCounts returns every endpoint's responses by status code, and
// their totals across endpoints.
func (s *endpointStats) statusCounts() (byEndpoint map[string]map[int]int, total map[int]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	byEndpoint, total = make(map[string]map[int]int), make(map[int]int)
	for pattern, c := range s.calls {
		byEndpoint[pattern] = make(map[int]int, len(c.status))
		for code, n := range c.status {
			byEndpoint[pattern][code] = n
			total[code] += n
		}
	}
	return byEndpoint, total
}

// endpointStatus counts one endpoint's responses with the given code.
func (s *endpointStats) endpointStatus(pattern string, code int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.calls[pattern]; c != nil {
		return c.status[code]
	}
	return 0
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.enabled.Load() {
		return t.next.RoundTrip(req)
	}
	start := time.Now()
	pattern := endpointPattern(req)
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.finish(req, pattern, 0, start, 0)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) {
		t.finish(req, pattern, resp.StatusCode, start, n)
	}}
	return resp, nil
}

func (t *timingTransport) finish(req *http.Request, pattern string, code int, start time.Time, n int64) {
	d := time.Since(start)
	t.stats.record(pattern, code, d, n)
	parent, _ := req.Context().Value(spanKey{}).(uint64)
	t.rec.add(0, parent, t.track, pattern, start, d,
		obs.A("status", strconv.Itoa(code)), obs.A("bytes", strconv.FormatInt(n, 10)))
}

// timedBody reports the bytes read once the body is closed.
type timedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// endpointPattern maps a request to its route, with job IDs folded to
// {id}: "GET /v1/jobs/{id}/result".
func endpointPattern(req *http.Request) string {
	path := req.URL.Path
	if rest, ok := strings.CutPrefix(path, "/v1/jobs/"); ok {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			path = "/v1/jobs/{id}" + rest[i:]
		} else {
			path = "/v1/jobs/{id}"
		}
	}
	return req.Method + " " + path
}
