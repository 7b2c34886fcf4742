package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"coldboot/internal/fleet"
	"coldboot/internal/jobs"
	"coldboot/internal/secret"
)

// The durable-store tests boot a server over a data dir, kill or drain
// it, and boot a second server over the same dir: the WAL replay must
// hand the second process the first one's jobs.

// bootServer is testServer without the auto-drain cleanup: crash-sim
// tests abandon the first server on purpose.
func bootServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// blockingRunner returns a stub RunFunc that completes only once release
// is closed, reporting one planted key and honoring the job's submit-time
// reveal choice the way runAnalysis does.
func blockingRunner(release <-chan struct{}, master []byte) jobs.RunFunc {
	return func(ctx context.Context, j *jobs.Job) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		m := secret.New(master)
		report := &ResultReport{
			Variant: "AES-256",
			Keys: []KeyReport{{
				Format:      "aesxts",
				Fingerprint: m.Fingerprint(),
				master:      m,
			}},
		}
		if pl, ok := j.Payload().(*dumpJob); ok {
			report.reveal = pl.Reveal
		}
		return report, nil
	}
}

// TestDurableDrainRestoresAbandoned: a drain abandons queued jobs into
// the journal; the next boot requeues and finishes them, and the drained
// process's finished job stays queryable with its redacted result.
func TestDurableDrainRestoresAbandoned(t *testing.T) {
	dir := t.TempDir()
	master := testMaster(7)
	release := make(chan struct{})
	cfg := Config{Workers: 1, DataDir: dir, Runner: blockingRunner(release, master)}

	svc1, ts1 := bootServer(t, cfg)
	code, doc := postDump(t, ts1, "", tinyContainer(t))
	if code != http.StatusCreated {
		t.Fatalf("submit A: HTTP %d: %v", code, doc)
	}
	idA := doc["id"].(string)
	code, doc = postDump(t, ts1, "", tinyContainer(t))
	if code != http.StatusCreated {
		t.Fatalf("submit B: HTTP %d: %v", code, doc)
	}
	idB := doc["id"].(string)

	pollUntil(t, ts1, idA, 10*time.Second, inState("running"))
	close(release) // A finishes; B may or may not start before the drain
	pollUntil(t, ts1, idA, 10*time.Second, inState("done"))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := svc1.Pool().Stats()
	if st.Abandoned+st.Done != 2 {
		t.Fatalf("after drain: done=%d abandoned=%d, want them to cover both jobs", st.Done, st.Abandoned)
	}

	// Second boot over the same dir: A stays done, B runs to done.
	_, ts2 := testServer(t, Config{Workers: 1, DataDir: dir, Runner: blockingRunner(release, master)})
	pollUntil(t, ts2, idB, 30*time.Second, inState("done"))
	code, result := getDoc(t, ts2, "/v1/jobs/"+idA+"/result")
	if code != http.StatusOK {
		t.Fatalf("restored result A: HTTP %d: %v", code, result)
	}
	keys := result["keys"].([]any)
	if len(keys) != 1 {
		t.Fatalf("restored result A keys: %v", result)
	}
	k := keys[0].(map[string]any)
	if k["fingerprint"] != secret.Fingerprint(master) {
		t.Errorf("restored fingerprint = %v, want %s", k["fingerprint"], secret.Fingerprint(master))
	}
	if k["master"] != nil {
		t.Errorf("non-reveal job persisted master across restart: %v", k)
	}

	// The metrics endpoint exposes the new durability gauges.
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"coldbootd_jobs_abandoned_total", "coldbootd_journal_errors_total", "coldbootd_wal_records"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestDurableRevealPersistence: only jobs submitted with ?reveal=keys
// keep raw masters across a restart; everyone else keeps fingerprints.
func TestDurableRevealPersistence(t *testing.T) {
	dir := t.TempDir()
	master := testMaster(11)
	release := make(chan struct{})
	close(release)
	cfg := Config{Workers: 1, DataDir: dir, Runner: blockingRunner(release, master)}

	svc1, ts1 := bootServer(t, cfg)
	code, doc := postDump(t, ts1, "?reveal=keys", tinyContainer(t))
	if code != http.StatusCreated {
		t.Fatalf("submit revealed: HTTP %d: %v", code, doc)
	}
	idReveal := doc["id"].(string)
	code, doc = postDump(t, ts1, "", tinyContainer(t))
	if code != http.StatusCreated {
		t.Fatalf("submit plain: HTTP %d: %v", code, doc)
	}
	idPlain := doc["id"].(string)
	pollUntil(t, ts1, idReveal, 10*time.Second, inState("done"))
	pollUntil(t, ts1, idPlain, 10*time.Second, inState("done"))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	_, ts2 := testServer(t, cfg)
	code, result := getDoc(t, ts2, "/v1/jobs/"+idReveal+"/result?reveal=keys")
	if code != http.StatusOK {
		t.Fatalf("revealed result: HTTP %d: %v", code, result)
	}
	k := result["keys"].([]any)[0].(map[string]any)
	if k["master"] != hex.EncodeToString(master) {
		t.Errorf("revealed job lost its master across restart: %v", k)
	}
	code, result = getDoc(t, ts2, "/v1/jobs/"+idPlain+"/result?reveal=keys")
	if code != http.StatusOK {
		t.Fatalf("plain result: HTTP %d: %v", code, result)
	}
	k = result["keys"].([]any)[0].(map[string]any)
	if k["master"] != nil {
		t.Errorf("non-reveal job persisted its master: %v", k)
	}
	if k["fingerprint"] != secret.Fingerprint(master) {
		t.Errorf("fingerprint lost: %v", k)
	}
}

// TestBootSweepsOrphanSpools: a spool that no restored job owns — left
// by a process that died between a job's terminal record and its wipe —
// is zeroed and unlinked at the next boot, while the spools of jobs that
// will run again stay for those jobs.
func TestBootSweepsOrphanSpools(t *testing.T) {
	dir := t.TempDir()
	hold := make(chan struct{}) // never closed: server 1's jobs stay active at "crash"
	_, ts1 := bootServer(t, Config{Workers: 1, DataDir: dir, Runner: blockingRunner(hold, testMaster(17))})
	code, doc := postDump(t, ts1, "", tinyContainer(t))
	if code != http.StatusCreated {
		t.Fatalf("submit A: HTTP %d: %v", code, doc)
	}
	idA := doc["id"].(string)
	pollUntil(t, ts1, idA, 10*time.Second, inState("running"))
	code, doc = postDump(t, ts1, "", tinyContainer(t))
	if code != http.StatusCreated {
		t.Fatalf("submit B: HTTP %d: %v", code, doc)
	}
	idB := doc["id"].(string)

	// "Crash" server 1 and plant an orphan next to the jobs' spools; a
	// hard link outlives the unlink, so the test can read what the sweep
	// left in the file.
	victim := bytes.Repeat([]byte{0xa5}, 4096)
	orphan := filepath.Join(dir, "coldbootd-orphan.cbdump")
	if err := os.WriteFile(orphan, victim, 0o600); err != nil {
		t.Fatal(err)
	}
	kept := filepath.Join(t.TempDir(), "orphan")
	if err := os.Link(orphan, kept); err != nil {
		t.Fatal(err)
	}

	// Server 2 runs the real analysis, which reads each restored job's
	// spool: a sweep that took them fails the jobs.
	_, ts2 := testServer(t, Config{Workers: 1, DataDir: dir})
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan spool survived the boot: %v", err)
	}
	held, err := os.ReadFile(kept)
	if err != nil {
		t.Fatal(err)
	}
	if len(held) != len(victim) || !bytes.Equal(held, make([]byte, len(held))) {
		t.Fatalf("the swept orphan (%d bytes) was not zeroed", len(held))
	}
	for _, id := range []string{idA, idB} {
		pollUntil(t, ts2, id, 30*time.Second, inState("done"))
	}
}

// TestDurableSpoolLossFailsJob: a crash that takes the spooled dumps with
// it must not leave jobs retrying a file that no longer exists — replay
// settles them as failed, durably.
func TestDurableSpoolLossFailsJob(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{}) // never closed: jobs stay active at "crash"
	cfg := Config{Workers: 1, DataDir: dir, Runner: blockingRunner(release, testMaster(13))}

	_, ts1 := bootServer(t, cfg)
	code, doc := postDump(t, ts1, "", tinyContainer(t))
	if code != http.StatusCreated {
		t.Fatalf("submit A: HTTP %d: %v", code, doc)
	}
	idA := doc["id"].(string)
	code, doc = postDump(t, ts1, "", tinyContainer(t))
	if code != http.StatusCreated {
		t.Fatalf("submit B: HTTP %d: %v", code, doc)
	}
	idB := doc["id"].(string)
	pollUntil(t, ts1, idA, 10*time.Second, inState("running"))

	// "Crash": abandon server 1 (no drain) and destroy every spool file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}

	_, ts2 := testServer(t, cfg)
	for _, id := range []string{idA, idB} {
		code, doc := getDoc(t, ts2, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("restored job %s: HTTP %d", id, code)
		}
		if doc["state"] != "failed" {
			t.Errorf("job %s restored as %v, want failed (spool lost)", id, doc["state"])
		}
		if errText, _ := doc["error"].(string); !strings.Contains(errText, "restore:") {
			t.Errorf("job %s error %q does not name the restore failure", id, errText)
		}
	}
}

// TestCoordinatorDrainReleasesHeldLease: a worker's lease call held for
// work must not hold up shutdown. Drain plus the HTTP server's graceful
// Shutdown, in coldbootd's order, return well inside the lease hold.
func TestCoordinatorDrainReleasesHeldLease(t *testing.T) {
	svc, err := New(Config{Workers: 1, Role: RoleCoordinator, LeaseTTL: 30 * time.Second, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	wctx, wcancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		(&fleet.Worker{Base: "http://" + ln.Addr().String(), Name: "w-held"}).Run(wctx)
	}()
	defer func() { wcancel(); <-workerDone }()
	for deadline := time.Now().Add(10 * time.Second); svc.coord.Stats().Waiting != 1; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("worker's lease call never parked")
		}
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Drain+Shutdown took %v with a lease call held", took)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatal(err)
	}
}

// TestCoordinatorMetricsBeforeFirstLease: a fresh coordinator serves
// /metrics before any shard was leased; the lease-wait p99 reads 0.
func TestCoordinatorMetricsBeforeFirstLease(t *testing.T) {
	svc, err := New(Config{Workers: 1, Role: RoleCoordinator})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain(context.Background())
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "\ncoldbootd_fleet_lease_wait_p99_ns 0\n") {
		t.Fatalf("/metrics before the first lease: HTTP %d\n%s", rec.Code, rec.Body)
	}
}

// TestCoordinatorRoleEndToEnd: a coordinator-role server plus one fleet
// worker recovers a planted master through the HTTP job API, and the
// fleet gauges surface on /metrics.
func TestCoordinatorRoleEndToEnd(t *testing.T) {
	master := testMaster(91)
	container := buildFixtureContainer(t, 1<<20, 91, master, 1024*64, false)
	svc, ts := testServer(t, Config{
		Workers:     1,
		Role:        RoleCoordinator,
		LeaseTTL:    5 * time.Second,
		ShardBlocks: 4096,
	})
	if svc.coord == nil {
		t.Fatal("coordinator role without a coordinator")
	}

	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	w := &fleet.Worker{Base: ts.URL, Name: "w-e2e"}
	go w.Run(wctx)

	code, doc := postDump(t, ts, "", container)
	if code != http.StatusCreated {
		t.Fatalf("submit: HTTP %d: %v", code, doc)
	}
	id := doc["id"].(string)
	final := pollUntil(t, ts, id, 120*time.Second, inState("done"))

	// The fleet job's status reads the same one span tree its trace does:
	// the worker's grafted shard scans show up as stages, and accepted
	// completions drive the headline progress to the total.
	stages := map[string]bool{}
	for _, st := range final["stages"].([]any) {
		stages[st.(map[string]any)["name"].(string)] = true
	}
	for _, want := range []string{"job", "campaign", "campaign.mine", "fleet.lease", "shard", "hunt", "hunt.worker", "campaign.merge", "fleet.merge"} {
		if !stages[want] {
			t.Errorf("fleet job status lacks stage %q (have %v)", want, stages)
		}
	}
	for _, gone := range []string{"attack", "mine", "directory", "assemble"} {
		if stages[gone] {
			t.Errorf("fleet job status has stage %q outside the campaign span tree", gone)
		}
	}
	if done, total := final["progress_done"], final["progress_total"]; done != total || total != float64(1<<20/64) {
		t.Errorf("fleet job progress %v of %v, want every block", done, total)
	}
	resp := openEvents(t, ts, id, 0)
	var campaignTicks int
	for _, e := range readStream(t, resp.Body, nil) {
		if e.Type == "progress" && e.Name == "campaign" && e.Done > 0 {
			campaignTicks++
		}
	}
	resp.Body.Close()
	if campaignTicks == 0 {
		t.Error("fleet job event stream carries no campaign progress")
	}

	code, result := getDoc(t, ts, "/v1/jobs/"+id+"/result?reveal=keys")
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %v", code, result)
	}
	found := false
	for _, raw := range result["keys"].([]any) {
		k := raw.(map[string]any)
		if k["master"] == hex.EncodeToString(master) {
			found = true
		}
	}
	if !found {
		t.Fatalf("fleet-run job missed the planted master: %v", result)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"coldbootd_fleet_workers_alive", "coldbootd_fleet_shards_done",
		"coldbootd_fleet_stragglers_total", "coldbootd_fleet_lease_wait_p99_ns",
		"coldbootd_fleet_backlog_per_worker", "coldbootd_events_overwritten_total",
		// The worker's shipped histograms surface as a labelled family.
		`coldbootd_pipeline_fleet_shard_seconds_count{worker="w-e2e"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// The job's trace endpoint serves the merged fleet timeline: the
	// coordinator's own lane plus one named lane carrying the spans the
	// worker shipped with its shard completions.
	events := fetchTrace(t, ts, id)
	lanes := map[string]uint64{}
	var workerTid uint64
	for _, e := range events {
		if e.Ph == "M" && e.Name == "thread_name" {
			lanes[e.Args["name"]] = e.Tid
		}
	}
	if _, ok := lanes["coordinator"]; !ok {
		t.Errorf("merged trace has no coordinator lane (lanes %v)", lanes)
	}
	workerTid = lanes["w-e2e"]
	if workerTid == 0 {
		t.Fatalf("merged trace has no w-e2e lane (lanes %v)", lanes)
	}
	var leases, workerSpans int
	lastTs := -1.0
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		if e.Ts < lastTs {
			t.Fatalf("merged trace ts not monotonic: %f after %f", e.Ts, lastTs)
		}
		lastTs = e.Ts
		if e.Name == "fleet.lease" {
			leases++
		}
		if e.Tid == workerTid {
			workerSpans++
		}
	}
	if leases == 0 {
		t.Error("merged trace has no fleet.lease spans")
	}
	if workerSpans == 0 {
		t.Error("merged trace has no spans on the worker's lane")
	}
}
