package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coldboot/internal/aes"
	"coldboot/internal/dumpfile"
	"coldboot/internal/jobs"
	"coldboot/internal/scramble"
	"coldboot/internal/workload"
)

// buildFixtureContainer builds a dump container holding a scrambled,
// sparsely decayed image with an AES-256 schedule planted at tableStart —
// the same recipe as internal/core's attack tests, wrapped for upload.
func buildFixtureContainer(t testing.TB, size int, seed int64, master []byte, tableStart int, decay bool) []byte {
	t.Helper()
	plain := make([]byte, size)
	if err := workload.Fill(plain, seed, workload.LightSystem); err != nil {
		t.Fatal(err)
	}
	copy(plain[tableStart:], aes.ExpandKeyBytes(master))
	s := scramble.NewSkylakeDDR4(uint64(seed)*31 + 7)
	dump := make([]byte, size)
	s.Scramble(dump, plain, 0)
	if decay {
		rng := rand.New(rand.NewSource(seed + 1000))
		flips := len(dump) * 8 / 1000 // 0.1% of bits
		for i := 0; i < flips; i++ {
			bit := rng.Intn(len(dump) * 8)
			dump[bit/8] ^= 1 << uint(bit%8)
		}
	}
	var buf bytes.Buffer
	meta := dumpfile.Metadata{CPU: "Skylake test rig", Channels: 1, ScramblerOn: true, FreezeTempC: -35, TransferSeconds: 60}
	if err := dumpfile.Write(&buf, meta, dump); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testMaster(seed int64) []byte {
	key := make([]byte, 32)
	rand.New(rand.NewSource(seed)).Read(key)
	return key
}

// testServer boots a Server over httptest and tears both down at test end.
func testServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Drain(ctx)
	})
	return svc, ts
}

func postDump(t testing.TB, ts *httptest.Server, query string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return decodeDoc(t, resp)
}

func getDoc(t testing.TB, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	return decodeDoc(t, resp)
}

func deleteJob(t testing.TB, ts *httptest.Server, id string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return decodeDoc(t, resp)
}

func decodeDoc(t testing.TB, resp *http.Response) (int, map[string]any) {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	doc := make(map[string]any)
	if len(data) > 0 {
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return resp.StatusCode, doc
}

// pollUntil polls the job's status document until pred is satisfied,
// asserting along the way that the progress gauge never moves backwards.
func pollUntil(t testing.TB, ts *httptest.Server, id string, timeout time.Duration, pred func(doc map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(timeout)
	lastProgress := -1.0
	for time.Now().Before(deadline) {
		code, doc := getDoc(t, ts, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status poll: HTTP %d: %v", code, doc)
		}
		if p, ok := doc["progress"].(float64); ok {
			if p < lastProgress {
				t.Fatalf("progress moved backwards: %f after %f", p, lastProgress)
			}
			lastProgress = p
		}
		if pred(doc) {
			return doc
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, doc := getDoc(t, ts, "/v1/jobs/"+id)
	t.Fatalf("timed out waiting on job %s; last status %v", id, doc)
	return nil
}

func inState(state string) func(map[string]any) bool {
	return func(doc map[string]any) bool { return doc["state"] == state }
}

// TestJobLifecycleEndToEnd drives the acceptance path: submit a scrambled
// + decayed fixture, watch it move queued → running → done with monotonic
// progress, and read back the planted master key from the result endpoint.
func TestJobLifecycleEndToEnd(t *testing.T) {
	master := testMaster(41)
	const tableStart = 4096*64 + 256
	container := buildFixtureContainer(t, 2<<20, 41, master, tableStart, true)

	dataDir := t.TempDir()
	_, ts := testServer(t, Config{
		Workers:     1,
		DataDir:     dataDir,
		ShardBlocks: 8192,    // 512 KiB shards: 4 campaign progress ticks on 2 MiB
		EventBuffer: 1 << 16, // the whole run's events stay readable after it ends
	})

	code, doc := postDump(t, ts, "?repair=1", container)
	if code != http.StatusCreated {
		t.Fatalf("submit: HTTP %d: %v", code, doc)
	}
	id, _ := doc["id"].(string)
	if id == "" {
		t.Fatalf("submit returned no id: %v", doc)
	}
	if doc["state"] != "queued" {
		t.Fatalf("submitted job state = %v, want queued", doc["state"])
	}
	if doc["image_bytes"] != float64(2<<20) {
		t.Errorf("image_bytes = %v", doc["image_bytes"])
	}
	meta, _ := doc["meta"].(map[string]any)
	if meta["cpu"] != "Skylake test rig" {
		t.Errorf("metadata not echoed: %v", doc["meta"])
	}

	final := pollUntil(t, ts, id, 60*time.Second, inState("done"))
	if final["progress"] != 1.0 {
		t.Errorf("final progress = %v, want 1", final["progress"])
	}
	if kf, _ := final["keys_found"].(float64); kf < 1 {
		t.Fatalf("keys_found = %v, want >= 1", final["keys_found"])
	}
	resp := openEvents(t, ts, id, 0)
	var ticks int
	for _, e := range readStream(t, resp.Body, nil) {
		if e.Type == "progress" && e.Name == "campaign" && e.Done > 0 {
			ticks++
		}
	}
	resp.Body.Close()
	if ticks < 2 {
		t.Errorf("campaign progress ticked %d times, want >= 2 (shard-by-shard)", ticks)
	}
	stages, _ := final["stages"].([]any)
	names := make(map[string]bool)
	for _, s := range stages {
		names[s.(map[string]any)["name"].(string)] = true
	}
	for _, want := range []string{"campaign.mine", "hunt", "campaign.merge"} {
		if !names[want] {
			t.Errorf("stage %q missing from status breakdown (have %v)", want, names)
		}
	}

	// Redacted by default: fingerprints only.
	code, result := getDoc(t, ts, "/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %v", code, result)
	}
	keys, _ := result["keys"].([]any)
	if len(keys) == 0 {
		t.Fatal("result has no keys")
	}
	key0 := keys[0].(map[string]any)
	if fp, _ := key0["fingerprint"].(string); !strings.HasPrefix(fp, "sha256:") {
		t.Errorf("fingerprint = %v", key0["fingerprint"])
	}
	if _, leaked := key0["master"]; leaked {
		t.Fatalf("redacted result leaks key material: %v", key0)
	}

	// Revealed on request: the planted master comes back bit-exact.
	code, revealed := getDoc(t, ts, "/v1/jobs/"+id+"/result?reveal=keys")
	if code != http.StatusOK {
		t.Fatalf("revealed result: HTTP %d", code)
	}
	rkeys := revealed["keys"].([]any)
	got, _ := rkeys[0].(map[string]any)["master"].(string)
	if got != hex.EncodeToString(master) {
		t.Fatalf("recovered master %s, want %s", got, hex.EncodeToString(master))
	}
	if rkeys[0].(map[string]any)["variant"] != "AES-256" {
		t.Errorf("variant = %v", rkeys[0].(map[string]any)["variant"])
	}

	// The spooled upload is deleted once the job is terminal.
	waitDirEmpty(t, dataDir)
}

// waitDirEmpty asserts every spooled dump has been wiped and unlinked.
func waitDirEmpty(t testing.TB, dir string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if spooled(t, dir) == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("spool dir still holds %d files", spooled(t, dir))
}

// spooled counts the spooled dumps in a data dir. The durable journal's
// wal/ subdirectory is a permanent resident of the data dir and doesn't
// count.
func spooled(t testing.TB, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if e.Name() != walDirName {
			n++
		}
	}
	return n
}

// TestDrainWaitsForSpoolWipe: a job's event stream ends before its
// spooled dump is wiped, but the wipe stays on the pool's goroutine, so
// once Drain returns no spooled dump is left.
func TestDrainWaitsForSpoolWipe(t *testing.T) {
	master := testMaster(45)
	container := buildFixtureContainer(t, 1<<20, 45, master, 4096*64, false)
	dataDir := t.TempDir()
	svc, ts := testServer(t, Config{Workers: 1, DataDir: dataDir})
	code, doc := postDump(t, ts, "", container)
	if code != http.StatusCreated {
		t.Fatalf("submit: HTTP %d: %v", code, doc)
	}
	resp := openEvents(t, ts, doc["id"].(string), 0)
	readStream(t, resp.Body, nil)
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if n := spooled(t, dataDir); n != 0 {
		t.Fatalf("Drain returned with %d spooled dumps left", n)
	}
}

// failingBody serves data up to failAt, then calls onFail and reports a
// broken upload.
type failingBody struct {
	data   []byte
	failAt int
	onFail func()
}

func (b *failingBody) Read(p []byte) (int, error) {
	if b.failAt == 0 {
		b.onFail()
		return 0, errors.New("client went away")
	}
	n := copy(p, b.data[:b.failAt])
	b.data, b.failAt = b.data[n:], b.failAt-n
	return n, nil
}

// TestFailedUploadWipesSpool: an upload that breaks part-way is zeroed
// before its spool is unlinked. When the body fails, the test hard-links
// the spool, whose first half of the dump is then on disk; after the
// handler has unlinked its own name, the link shows what the file held
// at the unlink: zeros only.
func TestFailedUploadWipesSpool(t *testing.T) {
	container := buildFixtureContainer(t, 1<<20, 47, testMaster(47), 4096*64, false)
	dataDir := t.TempDir()
	svc, _ := testServer(t, Config{Workers: 1, DataDir: dataDir})
	kept := filepath.Join(t.TempDir(), "spool")
	body := &failingBody{data: container, failAt: len(container) / 2, onFail: func() {
		spools, err := filepath.Glob(filepath.Join(dataDir, "coldbootd-*.cbdump"))
		if err != nil || len(spools) != 1 {
			t.Fatalf("spools mid-upload: %v, %v", spools, err)
		}
		if err := os.Link(spools[0], kept); err != nil {
			t.Fatal(err)
		}
		held, err := os.ReadFile(kept)
		if err != nil || !bytes.Equal(held, container[:len(held)]) || len(held) < len(container)/4 {
			t.Fatalf("spool mid-upload holds %d bytes, not the upload's first half (%v)", len(held), err)
		}
	}}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", body))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("broken upload: HTTP %d: %s", rec.Code, rec.Body)
	}
	if n := spooled(t, dataDir); n != 0 {
		t.Fatalf("%d spooled dumps left after a broken upload", n)
	}
	held, err := os.ReadFile(kept)
	if err != nil {
		t.Fatal(err)
	}
	if len(held) < len(container)/4 || !bytes.Equal(held, make([]byte, len(held))) {
		t.Fatalf("the unlinked spool (%d bytes) was not zeroed", len(held))
	}
}

// TestCancelMidRunKeepsPartialResult: DELETE while the campaign is mid-
// scan lands the job in canceled promptly, with a partial result report.
func TestCancelMidRunKeepsPartialResult(t *testing.T) {
	master := testMaster(42)
	// The dump must be big enough that the campaign is still mid-scan when
	// the DELETE lands: at the pipeline's gated ≥60 MB/s an 8 MiB job is
	// over in ~100ms — faster than submit→poll→cancel can round-trip on a
	// loaded 1-CPU CI box — so give the scan a sub-second runway instead.
	container := buildFixtureContainer(t, 64<<20, 42, master, 4096*64, false)
	dataDir := t.TempDir()
	_, ts := testServer(t, Config{Workers: 1, DataDir: dataDir, ShardBlocks: 4096})

	code, doc := postDump(t, ts, "", container)
	if code != http.StatusCreated {
		t.Fatalf("submit: HTTP %d: %v", code, doc)
	}
	id := doc["id"].(string)
	pollUntil(t, ts, id, 30*time.Second, inState("running"))

	code, cdoc := deleteJob(t, ts, id)
	if code != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d: %v", code, cdoc)
	}
	start := time.Now()
	pollUntil(t, ts, id, 10*time.Second, inState("canceled"))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}

	// Partial results survive: the report exists and is marked partial.
	code, result := getDoc(t, ts, "/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("partial result: HTTP %d: %v", code, result)
	}
	if result["partial"] != true {
		t.Errorf("result not marked partial: %v", result)
	}
	// A second DELETE purges the terminal job: key material is destroyed
	// and the job stops existing.
	code, pdoc := deleteJob(t, ts, id)
	if code != http.StatusOK {
		t.Errorf("second cancel: HTTP %d, want 200: %v", code, pdoc)
	}
	if pdoc["purged"] != true {
		t.Errorf("second cancel not marked purged: %v", pdoc)
	}
	if code, _ := getDoc(t, ts, "/v1/jobs/"+id); code != http.StatusNotFound {
		t.Errorf("status after purge: HTTP %d, want 404", code)
	}
	waitDirEmpty(t, dataDir)
}

// tinyContainer is a minimal valid upload for scheduling tests that never
// analyze for real (stub runners).
func tinyContainer(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dumpfile.Write(&buf, dumpfile.Metadata{CPU: "stub"}, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueueSaturationStaysBounded: jobs beyond the worker cap wait in the
// queue; no goroutine is spawned per queued job.
func TestQueueSaturationStaysBounded(t *testing.T) {
	release := make(chan struct{})
	var running atomic.Int32
	svc, ts := testServer(t, Config{
		Workers: 2,
		Runner: func(ctx context.Context, j *jobs.Job) (any, error) {
			running.Add(1)
			defer running.Add(-1)
			select {
			case <-release:
				return &ResultReport{}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	container := tinyContainer(t)
	before := runtime.NumGoroutine()
	var ids []string
	for i := 0; i < 8; i++ {
		code, doc := postDump(t, ts, "", container)
		if code != http.StatusCreated {
			t.Fatalf("submit %d: HTTP %d: %v", i, code, doc)
		}
		ids = append(ids, doc["id"].(string))
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := svc.Pool().Stats()
		if st.Running == 2 && st.Queued == 6 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st := svc.Pool().Stats(); st.Running != 2 || st.Queued != 6 {
		t.Fatalf("stats = %+v, want 2 running / 6 queued", st)
	}
	if running.Load() != 2 {
		t.Fatalf("%d runner invocations in flight, want 2", running.Load())
	}
	// No per-job goroutines: growth is bounded by the httptest server's
	// own connection handling, not the queue depth.
	if after := runtime.NumGoroutine(); after-before > 12 {
		t.Errorf("goroutines grew %d -> %d while 6 jobs queued", before, after)
	}
	close(release)
	for _, id := range ids {
		pollUntil(t, ts, id, 10*time.Second, inState("done"))
	}
}

// TestDrainRejectsNewWorkAndFinishesRunning: during drain the API answers
// 503 for submissions while the in-flight job completes; queued jobs are
// abandoned.
func TestDrainRejectsNewWorkAndFinishesRunning(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	svc, ts := testServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, j *jobs.Job) (any, error) {
			started <- struct{}{}
			<-release
			return &ResultReport{Keys: []KeyReport{}}, nil
		},
	})
	container := tinyContainer(t)
	code, doc := postDump(t, ts, "", container)
	if code != http.StatusCreated {
		t.Fatal(code)
	}
	runningID := doc["id"].(string)
	<-started
	code, doc = postDump(t, ts, "", container)
	if code != http.StatusCreated {
		t.Fatal(code)
	}
	queuedID := doc["id"].(string)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- svc.Drain(ctx)
	}()
	// Submissions during drain are refused. (Draining flips under the pool
	// lock before Drain blocks, but give the goroutine a beat to start.)
	deadline := time.Now().Add(5 * time.Second)
	for !svc.Pool().Stats().Draining && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if code, doc := postDump(t, ts, "", container); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: HTTP %d: %v", code, doc)
	}
	if _, doc := getDoc(t, ts, "/healthz"); doc["status"] != "draining" {
		t.Errorf("healthz during drain = %v", doc["status"])
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, doc := getDoc(t, ts, "/v1/jobs/"+runningID); doc["state"] != "done" {
		t.Errorf("running job after drain = %v, want done", doc["state"])
	}
	if _, doc := getDoc(t, ts, "/v1/jobs/"+queuedID); doc["state"] != "queued" {
		t.Errorf("queued job after drain = %v, want queued (abandoned)", doc["state"])
	}
}

// TestSubmitValidation covers the upload guardrails.
func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, Config{
		Workers:        1,
		MaxUploadBytes: 64 << 10,
		Runner: func(ctx context.Context, j *jobs.Job) (any, error) {
			return &ResultReport{}, nil
		},
	})
	good := tinyContainer(t)

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		copy(bad, "NOTADUMP")
		if code, doc := postDump(t, ts, "", bad); code != http.StatusBadRequest {
			t.Errorf("HTTP %d: %v", code, doc)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if code, doc := postDump(t, ts, "", good[:len(good)-10]); code != http.StatusBadRequest {
			t.Errorf("HTTP %d: %v", code, doc)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), 0xAA)
		if code, doc := postDump(t, ts, "", bad); code != http.StatusBadRequest {
			t.Errorf("HTTP %d: %v", code, doc)
		}
	})
	t.Run("misaligned image", func(t *testing.T) {
		var buf bytes.Buffer
		if err := dumpfile.Write(&buf, dumpfile.Metadata{}, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		code, doc := postDump(t, ts, "", buf.Bytes())
		if code != http.StatusBadRequest {
			t.Errorf("HTTP %d: %v", code, doc)
		}
		if msg, _ := doc["error"].(string); !strings.Contains(msg, "scrambler block") {
			t.Errorf("error = %q", msg)
		}
	})
	t.Run("too large", func(t *testing.T) {
		var buf bytes.Buffer
		if err := dumpfile.Write(&buf, dumpfile.Metadata{}, make([]byte, 128<<10)); err != nil {
			t.Fatal(err)
		}
		if code, doc := postDump(t, ts, "", buf.Bytes()); code != http.StatusRequestEntityTooLarge {
			t.Errorf("HTTP %d: %v", code, doc)
		}
	})
	t.Run("bad params", func(t *testing.T) {
		for _, q := range []string{"?priority=x", "?repair=7", "?repair=x", "?variant=512"} {
			if code, _ := postDump(t, ts, q, good); code != http.StatusBadRequest {
				t.Errorf("%s: HTTP %d, want 400", q, code)
			}
		}
	})
}

// TestStatusAndResultErrors covers the status/result endpoints' error
// mapping.
func TestStatusAndResultErrors(t *testing.T) {
	block := make(chan struct{})
	_, ts := testServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, j *jobs.Job) (any, error) {
			<-block
			return nil, errors.New("scan exploded")
		},
	})
	t.Cleanup(func() {
		select {
		case <-block:
		default:
			close(block)
		}
	})
	if code, _ := getDoc(t, ts, "/v1/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown status: HTTP %d", code)
	}
	if code, _ := deleteJob(t, ts, "nope"); code != http.StatusNotFound {
		t.Errorf("unknown cancel: HTTP %d", code)
	}
	if code, _ := getDoc(t, ts, "/v1/jobs/nope/result"); code != http.StatusNotFound {
		t.Errorf("unknown result: HTTP %d", code)
	}

	code, doc := postDump(t, ts, "", tinyContainer(t))
	if code != http.StatusCreated {
		t.Fatal(code)
	}
	id := doc["id"].(string)
	pollUntil(t, ts, id, 10*time.Second, inState("running"))
	// Result before the job finishes conflicts.
	if code, _ := getDoc(t, ts, "/v1/jobs/"+id+"/result"); code != http.StatusConflict {
		t.Errorf("early result: HTTP %d, want 409", code)
	}
	close(block)
	final := pollUntil(t, ts, id, 10*time.Second, inState("failed"))
	if msg, _ := final["error"].(string); !strings.Contains(msg, "scan exploded") {
		t.Errorf("failure error = %q", msg)
	}
	// A failed job with no report has no result document.
	if code, _ := getDoc(t, ts, "/v1/jobs/"+id+"/result"); code != http.StatusNotFound {
		t.Errorf("failed result: HTTP %d, want 404", code)
	}
}

// TestMetricsEndpoint: pool gauges and pipeline aggregates appear in the
// Prometheus text output.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{
		Workers: 3,
		Runner: func(ctx context.Context, j *jobs.Job) (any, error) {
			return &ResultReport{}, nil
		},
	})
	code, doc := postDump(t, ts, "", tinyContainer(t))
	if code != http.StatusCreated {
		t.Fatal(code)
	}
	pollUntil(t, ts, doc["id"].(string), 10*time.Second, inState("done"))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"coldbootd_workers 3",
		"coldbootd_jobs_done_total 1",
		"coldbootd_jobs_queued 0",
		"coldbootd_draining 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestMetricsIncludePipelineStages: a real (small, clean) analysis run
// feeds the shared collector, and its stage aggregates reach /metrics.
func TestMetricsIncludePipelineStages(t *testing.T) {
	master := testMaster(43)
	container := buildFixtureContainer(t, 1<<20, 43, master, 2048*64, false)
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
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`coldbootd_pipeline_stage_wall_seconds{stage="campaign.mine"}`,
		`coldbootd_pipeline_stage_calls_total{stage="hunt"}`,
		`coldbootd_pipeline_counter_total{name="progress.campaign"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestListEndpoint: GET /v1/jobs returns every job in submission order.
func TestListEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{
		Workers: 1,
		Runner: func(ctx context.Context, j *jobs.Job) (any, error) {
			return &ResultReport{}, nil
		},
	})
	container := tinyContainer(t)
	var ids []string
	for i := 0; i < 3; i++ {
		code, doc := postDump(t, ts, fmt.Sprintf("?priority=%d", i), container)
		if code != http.StatusCreated {
			t.Fatal(code)
		}
		ids = append(ids, doc["id"].(string))
	}
	for _, id := range ids {
		pollUntil(t, ts, id, 10*time.Second, inState("done"))
	}
	code, doc := getDoc(t, ts, "/v1/jobs")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	list, _ := doc["jobs"].([]any)
	if len(list) != 3 {
		t.Fatalf("list has %d jobs", len(list))
	}
	for i, item := range list {
		if got := item.(map[string]any)["id"]; got != ids[i] {
			t.Errorf("list[%d] = %v, want %s", i, got, ids[i])
		}
	}
}
