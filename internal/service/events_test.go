package service

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"coldboot/internal/jobs"
)

// streamLine + the data-event fields we assert on; NDJSON lines decode
// into this regardless of whether they are control or telemetry records.
type eventLine struct {
	Type    string `json:"type"`
	Name    string `json:"name"`
	Seq     uint64 `json:"seq"`
	Cursor  uint64 `json:"cursor"`
	Skipped uint64 `json:"skipped"`
	State   string `json:"state"`
	Done    int64  `json:"done"`
	Total   int64  `json:"total"`
	Delta   int64  `json:"delta"`
	Span    uint64 `json:"span"`
	Parent  uint64 `json:"parent"`
}

func openEvents(t testing.TB, ts *httptest.Server, id string, cursor uint64) *http.Response {
	t.Helper()
	url := ts.URL + "/v1/jobs/" + id + "/events"
	if cursor > 0 {
		url += "?cursor=" + strconv.FormatUint(cursor, 10)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("events: HTTP %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	return resp
}

// readStream consumes NDJSON lines until an "end" line (or stop returns
// true), returning everything read.
func readStream(t testing.TB, body io.Reader, stop func(eventLine) bool) []eventLine {
	t.Helper()
	var lines []eventLine
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ln eventLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ln)
		if ln.Type == "end" || (stop != nil && stop(ln)) {
			return lines
		}
	}
	t.Fatalf("stream closed without an end line (%d lines read): %v", len(lines), sc.Err())
	return nil
}

// TestEventsStreamEndToEnd opens the live stream while a real (small)
// analysis runs: data events arrive with dense increasing seqs, span and
// progress records for the whole pipeline show up, and the stream closes
// itself with an "end" record once the job is terminal. A second
// connection resumes from a mid-stream cursor without replaying or
// losing events.
func TestEventsStreamEndToEnd(t *testing.T) {
	master := testMaster(44)
	container := buildFixtureContainer(t, 1<<20, 44, master, 2048*64, false)
	_, ts := testServer(t, Config{Workers: 1, ShardBlocks: 4096, EventBuffer: 1 << 16})

	code, doc := postDump(t, ts, "", container)
	if code != http.StatusCreated {
		t.Fatalf("submit: HTTP %d: %v", code, doc)
	}
	id := doc["id"].(string)

	// Connection 1: follow the whole job live.
	resp := openEvents(t, ts, id, 0)
	lines := readStream(t, resp.Body, nil)
	resp.Body.Close()

	var lastSeq uint64
	spanStarts := map[string]bool{}
	var sawProgress, sawObserve bool
	for _, ln := range lines {
		switch ln.Type {
		case "span_start":
			spanStarts[ln.Name] = true
		case "progress":
			sawProgress = true
		case "observe":
			sawObserve = true
		case "gap":
			t.Fatalf("stream reported a gap (skipped %d) despite a %d-event buffer", ln.Skipped, 1<<16)
		}
		if ln.Seq > 0 {
			if ln.Seq != lastSeq+1 {
				t.Fatalf("event seq %d follows %d, want dense increasing", ln.Seq, lastSeq)
			}
			lastSeq = ln.Seq
		}
	}
	for _, want := range []string{"job", "campaign", "campaign.mine", "shard", "hunt", "hunt.worker", "campaign.merge"} {
		if !spanStarts[want] {
			t.Errorf("no span_start for %q in stream (have %v)", want, spanStarts)
		}
	}
	for _, gone := range []string{"attack", "mine", "directory", "assemble"} {
		if spanStarts[gone] {
			t.Errorf("span_start for %q, outside the campaign span tree", gone)
		}
	}
	if !sawProgress || !sawObserve {
		t.Errorf("stream missing event types: progress=%v observe=%v", sawProgress, sawObserve)
	}
	end := lines[len(lines)-1]
	if end.Type != "end" || end.State != "done" || end.Cursor != lastSeq {
		t.Fatalf("end line = %+v, want state done at cursor %d", end, lastSeq)
	}

	// Connection 2: resume from the middle; delivery picks up at exactly
	// cursor+1 and reaches the same end.
	mid := lastSeq / 2
	resp = openEvents(t, ts, id, mid)
	resumed := readStream(t, resp.Body, nil)
	resp.Body.Close()
	if first := resumed[0]; first.Seq != mid+1 {
		t.Fatalf("resumed stream starts at seq %d, want %d", first.Seq, mid+1)
	}
	if end := resumed[len(resumed)-1]; end.Type != "end" || end.Cursor != lastSeq {
		t.Fatalf("resumed end = %+v, want cursor %d", end, lastSeq)
	}
}

// TestEventsHeartbeat: an idle stream (stub runner emitting no telemetry)
// stays alive through periodic heartbeat lines and still terminates with
// an end record when the job finishes.
func TestEventsHeartbeat(t *testing.T) {
	release := make(chan struct{})
	_, ts := testServer(t, Config{
		Workers:   1,
		Heartbeat: 20 * time.Millisecond,
		Runner: func(ctx context.Context, j *jobs.Job) (any, error) {
			<-release
			return &ResultReport{}, nil
		},
	})
	code, doc := postDump(t, ts, "", tinyContainer(t))
	if code != http.StatusCreated {
		t.Fatal(code)
	}
	id := doc["id"].(string)

	resp := openEvents(t, ts, id, 0)
	defer resp.Body.Close()
	beats := 0
	done := make(chan []eventLine, 1)
	go func() {
		done <- readStream(t, resp.Body, func(ln eventLine) bool {
			if ln.Type == "heartbeat" {
				beats++
				if beats == 2 {
					close(release) // enough keepalives seen; let the job finish
				}
			}
			return false
		})
	}()
	select {
	case lines := <-done:
		if beats < 2 {
			t.Errorf("saw %d heartbeats, want >= 2", beats)
		}
		if end := lines[len(lines)-1]; end.Type != "end" || end.State != "done" {
			t.Errorf("end line = %+v", end)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not end after job completion")
	}
}

// TestEventsErrors covers the endpoint's error mapping: unknown jobs and
// bad cursors are rejected, and jobs submitted around the HTTP layer
// (straight into the pool) have no journal to stream.
func TestEventsErrors(t *testing.T) {
	svc, ts := testServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, j *jobs.Job) (any, error) {
			return &ResultReport{}, nil
		},
	})
	if code, _ := getDoc(t, ts, "/v1/jobs/nope/events"); code != http.StatusNotFound {
		t.Errorf("unknown job events: HTTP %d, want 404", code)
	}

	code, doc := postDump(t, ts, "", tinyContainer(t))
	if code != http.StatusCreated {
		t.Fatal(code)
	}
	id := doc["id"].(string)
	if code, _ := getDoc(t, ts, "/v1/jobs/"+id+"/events?cursor=banana"); code != http.StatusBadRequest {
		t.Errorf("bad cursor: HTTP %d, want 400", code)
	}

	snap, err := svc.Pool().Submit(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if code, d := getDoc(t, ts, "/v1/jobs/"+snap.ID+"/events"); code != http.StatusNotFound {
		t.Errorf("journal-less job events: HTTP %d: %v, want 404", code, d)
	}
}

// TestMetricsEndpointValid fetches /metrics after a real analysis and
// validates the whole exposition against the Prometheus text format:
// HELP/TYPE precede their family, label values unquote, no series is
// emitted twice, and histogram families carry _bucket/_sum/_count.
func TestMetricsEndpointValid(t *testing.T) {
	master := testMaster(45)
	container := buildFixtureContainer(t, 1<<20, 45, master, 1024*64, false)
	_, ts := testServer(t, Config{Workers: 1})
	code, doc := postDump(t, ts, "", container)
	if code != http.StatusCreated {
		t.Fatal(code)
	}
	pollUntil(t, ts, doc["id"].(string), 60*time.Second, inState("done"))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	types := map[string]string{} // family -> TYPE
	seen := map[string]bool{}    // full series (name + labels)
	samples := map[string]bool{} // sample metric names
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := types[parts[2]]; dup {
				t.Errorf("duplicate TYPE for family %s", parts[2])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			if len(strings.Fields(line)) < 4 {
				t.Fatalf("malformed HELP line %q", line)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line %q", line)
		}
		// Sample: name{labels} value
		series := line
		if i := strings.LastIndexByte(line, ' '); i < 0 {
			t.Fatalf("sample line %q has no value", line)
		} else {
			series = line[:i]
			if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
				t.Fatalf("sample %q: bad value: %v", line, err)
			}
		}
		if seen[series] {
			t.Errorf("series %s emitted twice", series)
		}
		seen[series] = true
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			labels := strings.TrimSuffix(series[i+1:], "}")
			for _, lv := range splitPromLabels(labels) {
				eq := strings.IndexByte(lv, '=')
				if eq < 0 {
					t.Fatalf("series %s: label %q has no =", series, lv)
				}
				if _, err := strconv.Unquote(lv[eq+1:]); err != nil {
					t.Fatalf("series %s: label value %s does not unquote: %v", series, lv[eq+1:], err)
				}
			}
		}
		samples[name] = true
	}
	for name := range samples {
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f := strings.TrimSuffix(name, suffix); f != name && types[f] == "histogram" {
				family = f
				break
			}
		}
		if _, ok := types[family]; !ok {
			t.Errorf("sample %s has no TYPE family", name)
		}
	}
	// The pipeline histograms are present as native Prometheus histograms.
	nHist := 0
	for family, typ := range types {
		if typ != "histogram" {
			continue
		}
		nHist++
		for _, suffix := range []string{`_bucket{le="+Inf"}`, "_sum", "_count"} {
			if !strings.Contains(text, family+suffix) {
				t.Errorf("histogram %s missing %s series", family, suffix)
			}
		}
	}
	if nHist < 3 {
		t.Errorf("metrics expose %d native histograms, want >= 3", nHist)
	}
	for _, want := range []string{
		"coldbootd_pipeline_hunt_chunk_seconds",
		"coldbootd_pipeline_hunt_verify_seconds",
		"coldbootd_pipeline_jobs_run_seconds",
		"coldbootd_pipeline_jobs_queue_wait_seconds",
	} {
		if types[want] != "histogram" {
			t.Errorf("family %s: TYPE %q, want histogram", want, types[want])
		}
	}
}

// splitPromLabels splits a label body on commas that sit outside quoted
// values.
func splitPromLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
