package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"coldboot/internal/core"
	"coldboot/internal/fleet"
)

// scrapeMetrics GETs /metrics and returns the exposition text.
func scrapeMetrics(t testing.TB, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue returns the value of one exact series (name plus labels) in
// an exposition, failing the test when the series is absent.
func metricValue(t testing.TB, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, v)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
}

// stageCalls returns a status document's call count for one stage.
func stageCalls(doc map[string]any, name string) float64 {
	stages, _ := doc["stages"].([]any)
	for _, raw := range stages {
		st := raw.(map[string]any)
		if st["name"] == name {
			calls, _ := st["calls"].(float64)
			return calls
		}
	}
	return 0
}

// TestJobTraceSurvivesFullDaemonCollector: each job traces into its own
// collector, so a daemon collector already holding a full span cap leaves
// a new job's trace whole.
func TestJobTraceSurvivesFullDaemonCollector(t *testing.T) {
	svc, ts := testServer(t, Config{Workers: 1})
	for i := 0; i < 65536; i++ {
		svc.Collector().StartSpan("filler").End()
	}
	container := buildFixtureContainer(t, 1<<19, 418, testMaster(418), 96*64, false)
	code, doc := postDump(t, ts, "", container)
	if code != http.StatusCreated {
		t.Fatalf("submit: HTTP %d: %v", code, doc)
	}
	id := doc["id"].(string)
	pollUntil(t, ts, id, 120*time.Second, inState("done"))
	seen := map[string]bool{}
	for _, e := range fetchTrace(t, ts, id) {
		seen[e.Name] = true
		if e.Name == "filler" {
			t.Fatal("job trace carries daemon spans")
		}
	}
	for _, want := range []string{"job", "hunt"} {
		if !seen[want] {
			t.Errorf("job trace lacks a %q span (saw %v)", want, seen)
		}
	}
}

// TestPurgeKeepsMetricCounters: a terminal job's aggregates count in
// /metrics exactly once (its status and the exposition agree), and
// purging the job with DELETE lowers no counter — neither a pipeline stage
// count nor the journal overwrite total, which a tiny event ring forces
// above zero.
func TestPurgeKeepsMetricCounters(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, EventBuffer: 8})
	container := buildFixtureContainer(t, 1<<19, 419, testMaster(419), 96*64, false)
	code, doc := postDump(t, ts, "", container)
	if code != http.StatusCreated {
		t.Fatalf("submit: HTTP %d: %v", code, doc)
	}
	id := doc["id"].(string)
	final := pollUntil(t, ts, id, 120*time.Second, inState("done"))

	const (
		huntCalls   = `coldbootd_pipeline_stage_calls_total{stage="hunt"}`
		jobCalls    = `coldbootd_pipeline_stage_calls_total{stage="job"}`
		overwritten = "coldbootd_events_overwritten_total"
	)
	before := scrapeMetrics(t, ts)
	hunt := metricValue(t, before, huntCalls)
	if want := stageCalls(final, "hunt"); hunt != want || hunt == 0 {
		t.Errorf("/metrics hunt calls %v, job status %v: want equal and nonzero", hunt, want)
	}
	if got := metricValue(t, before, jobCalls); got != 1 {
		t.Errorf("/metrics job calls %v after one job, want 1", got)
	}
	lost := metricValue(t, before, overwritten)
	if lost == 0 {
		t.Fatalf("an 8-event ring lost no events; the overwrite check would be vacuous")
	}

	if code, doc := deleteJob(t, ts, id); code != http.StatusOK || doc["purged"] != true {
		t.Fatalf("purge: HTTP %d: %v", code, doc)
	}
	after := scrapeMetrics(t, ts)
	if got := metricValue(t, after, huntCalls); got != hunt {
		t.Errorf("hunt calls %v after purge, want %v", got, hunt)
	}
	if got := metricValue(t, after, overwritten); got != lost {
		t.Errorf("events overwritten %v after purge, want %v", got, lost)
	}
}

var inventoryName = regexp.MustCompile("^\\| `(coldbootd_[a-z0-9_<>]+)`")

// designInventory reads the metric families DESIGN.md's "Metrics
// inventory" table lists: the first column of each row.
func designInventory(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "**Metrics inventory.**")
	if !ok {
		t.Fatal(`DESIGN.md has no "Metrics inventory" section`)
	}
	var names []string
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if m := inventoryName.FindStringSubmatch(line); m != nil {
			names = append(names, m[1])
			inTable = true
		} else if inTable && !strings.HasPrefix(line, "|") {
			break
		}
	}
	if len(names) == 0 {
		t.Fatal("DESIGN.md metrics inventory lists no families")
	}
	return names
}

// metricFamilies returns an exposition's family names with their TYPE.
func metricFamilies(text string) map[string]string {
	families := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if f := strings.Fields(rest); len(f) == 2 {
				families[f[0]] = f[1]
			}
		}
	}
	return families
}

// TestMetricsInventory holds DESIGN.md's metrics inventory and /metrics to
// each other in both directions, over one standalone job (with a data dir,
// so the WAL gauges appear) and one coordinator job: every emitted family
// is listed, and every listed family is emitted. The pipeline's native
// histograms are one inventory row, `coldbootd_pipeline_<name>_seconds`,
// matched by prefix.
func TestMetricsInventory(t *testing.T) {
	container := buildFixtureContainer(t, 1<<19, 420, testMaster(420), 96*64, false)
	emitted := map[string]string{}
	runJob := func(ts *httptest.Server) {
		code, doc := postDump(t, ts, "", container)
		if code != http.StatusCreated {
			t.Fatalf("submit: HTTP %d: %v", code, doc)
		}
		pollUntil(t, ts, doc["id"].(string), 120*time.Second, inState("done"))
		for name, typ := range metricFamilies(scrapeMetrics(t, ts)) {
			emitted[name] = typ
		}
	}

	_, standalone := testServer(t, Config{Workers: 1, DataDir: t.TempDir()})
	runJob(standalone)

	_, coord := testServer(t, Config{Workers: 1, Role: RoleCoordinator, LeaseTTL: 5 * time.Second, ShardBlocks: 2048})
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	w := &fleet.Worker{Base: coord.URL, Name: "w-inventory"}
	go w.Run(wctx)
	runJob(coord)

	const histRow = "coldbootd_pipeline_<name>_seconds"
	listed := map[string]bool{}
	for _, name := range designInventory(t) {
		listed[name] = true
	}
	matched := map[string]bool{}
	var unlisted []string
	for name, typ := range emitted {
		switch {
		case listed[name]:
			matched[name] = true
		case typ == "histogram" && strings.HasPrefix(name, "coldbootd_pipeline_") && listed[histRow]:
			matched[histRow] = true
		default:
			unlisted = append(unlisted, name)
		}
	}
	sort.Strings(unlisted)
	for _, name := range unlisted {
		t.Errorf("/metrics emits %s, which DESIGN.md's metrics inventory does not list", name)
	}
	for name := range listed {
		if !matched[name] {
			t.Errorf("DESIGN.md's metrics inventory lists %s, which /metrics never emitted", name)
		}
	}
}

// TestFleetCountersExportedOnce: the fleet's requeue and steal events are
// counted once, on the daemon collector the coordinator's lease boards
// report to, so coldbootd_fleet_*_total and the matching
// coldbootd_pipeline_counter_total series read the same value. Two boards
// on that collector stand in for a campaign's: one requeues an expired
// lease, the other steals a shard from a straggling worker.
func TestFleetCountersExportedOnce(t *testing.T) {
	svc, ts := testServer(t, Config{Workers: 1, Role: RoleCoordinator})
	shards := func(n int) []core.Shard {
		out := make([]core.Shard, n)
		for i := range out {
			out[i] = core.Shard{Index: i, FirstBlock: i * 128, Blocks: 128}
		}
		return out
	}

	expiring := fleet.NewBoard(shards(1), time.Nanosecond, svc.collector, nil)
	dead, _ := expiring.Lease("w-dead")
	time.Sleep(time.Millisecond)
	if l, ok := expiring.Lease("w-live"); !ok || l.Shard.Index != dead.Shard.Index || l.Stolen {
		t.Fatalf("expired shard not requeued: %+v, %v", l, ok)
	}

	stealing := fleet.NewBoard(shards(9), time.Hour, svc.collector, nil)
	for i := 0; i < 8; i++ { // enough completions to bound stragglers
		l, _ := stealing.Lease("w-fast")
		if _, ok := stealing.Complete(l.ID, core.ShardResult{Shard: l.Shard}, nil); !ok {
			t.Fatalf("completion %d refused", i)
		}
	}
	slow, _ := stealing.Lease("w-slow")
	var stolen fleet.Lease
	for deadline := time.Now().Add(10 * time.Second); !stolen.Stolen; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("straggling shard never stolen")
		}
		stolen, _ = stealing.Lease("w-fast")
	}
	if _, ok := stealing.Complete(stolen.ID, core.ShardResult{Shard: slow.Shard}, nil); !ok {
		t.Fatal("stolen shard's completion refused")
	}

	text := scrapeMetrics(t, ts)
	for _, event := range []string{"requeues", "steals"} {
		fleetTotal := metricValue(t, text, "coldbootd_fleet_"+event+"_total")
		pipeline := metricValue(t, text, `coldbootd_pipeline_counter_total{name="fleet.`+event+`"}`)
		if fleetTotal != 1 || pipeline != fleetTotal {
			t.Errorf("%s: coldbootd_fleet_%s_total %v, pipeline counter %v; want both 1", event, event, fleetTotal, pipeline)
		}
	}
}
