package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCollectorConcurrentHammer drives one Collector from many goroutines
// at once — stages, counters, progress, and concurrent Report() and Fold
// readers —
// the way the analysis daemon shares a single collector across its worker
// pool. Meaningful under -race (make race); the totals check catches lost
// updates even without it.
func TestCollectorConcurrentHammer(t *testing.T) {
	c := NewCollector()
	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stage := []string{"mine", "hunt", "assemble"}[g%3]
			for i := 0; i < iters; i++ {
				timer := c.StartSpan(stage)
				c.Count("pairs", 3)
				c.Count("candidates", 1)
				c.Progress("campaign", int64(g*iters+i), int64(goroutines*iters))
				timer.End()
				if i%17 == 0 {
					// Concurrent readers must see a consistent snapshot.
					r := c.Report()
					if r.Counters["pairs"]%3 != 0 {
						t.Errorf("torn counter read: pairs = %d", r.Counters["pairs"])
						return
					}
					// So must a fold of the live collector (a /metrics
					// scrape over a running job).
					view := NewCollector()
					view.Fold(c)
					if n := view.Summary().Counters["pairs"]; n%3 != 0 {
						t.Errorf("torn fold: pairs = %d", n)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	r := c.Report()
	if want := int64(goroutines * iters * 3); r.Counters["pairs"] != want {
		t.Errorf("pairs = %d, want %d (lost updates)", r.Counters["pairs"], want)
	}
	if want := int64(goroutines * iters); r.Counters["candidates"] != want {
		t.Errorf("candidates = %d, want %d", r.Counters["candidates"], want)
	}
	// Progress keeps the high-water mark across all goroutines.
	if want := int64((goroutines-1)*iters + iters - 1); r.Counters["progress.campaign"] != want {
		t.Errorf("progress.campaign = %d, want %d", r.Counters["progress.campaign"], want)
	}
	calls := 0
	for _, s := range r.Stages {
		calls += s.Calls
	}
	if calls != goroutines*iters {
		t.Errorf("stage calls = %d, want %d", calls, goroutines*iters)
	}
}

// TestMultiConcurrentHammer fans concurrent events through Multi into two
// Collectors plus a Funcs adapter, as the service does per job (shared
// collector + job bridge + optional extra tracer).
func TestMultiConcurrentHammer(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	var mu sync.Mutex
	var funcCounts int64
	m := Multi(a, b, &Funcs{
		OnCount: func(name string, delta int64) {
			mu.Lock()
			funcCounts += delta
			mu.Unlock()
		},
	})
	const goroutines = 8
	const iters = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				timer := m.StartSpan("hunt")
				m.Count("blocks", 2)
				m.Progress("hunt", int64(i), iters)
				timer.End()
			}
		}(g)
	}
	wg.Wait()
	want := int64(goroutines * iters * 2)
	for name, c := range map[string]*Collector{"a": a, "b": b} {
		if got := c.Report().Counters["blocks"]; got != want {
			t.Errorf("collector %s: blocks = %d, want %d", name, got, want)
		}
	}
	if funcCounts != want {
		t.Errorf("funcs saw %d, want %d", funcCounts, want)
	}
}

func TestWritePrometheus(t *testing.T) {
	c := NewCollector()
	timer := c.StartSpan("campaign.mine")
	time.Sleep(time.Millisecond)
	timer.End()
	c.Count("hunt.pairs", 42)
	c.Progress("campaign", 128, 1024)

	var sb strings.Builder
	if err := c.Report().WritePrometheus(&sb, "coldbootd_pipeline"); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE coldbootd_pipeline_stage_wall_seconds counter",
		`coldbootd_pipeline_stage_wall_seconds{stage="campaign.mine"} `,
		`coldbootd_pipeline_stage_calls_total{stage="campaign.mine"} 1`,
		`coldbootd_pipeline_counter_total{name="hunt.pairs"} 42`,
		`coldbootd_pipeline_counter_total{name="progress.campaign"} 128`,
		"coldbootd_pipeline_observed_seconds ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// Every sample line must parse as "<name>{...} <value>" with no
	// unescaped newlines sneaking into labels.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "coldbootd_pipeline_") {
			t.Errorf("stray line %q", line)
		}
	}
}

func TestWritePrometheusSanitizesNamespace(t *testing.T) {
	var sb strings.Builder
	r := Report{Counters: map[string]int64{"x": 1}}
	if err := r.WritePrometheus(&sb, "1bad-ns.name"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `_bad_ns_name_counter_total{name="x"} 1`) {
		t.Errorf("namespace not sanitized:\n%s", sb.String())
	}
}
