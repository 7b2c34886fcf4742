package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNopIsSafe(t *testing.T) {
	Nop.StartSpan("x").End()
	Nop.Count("c", 1)
	Nop.Progress("x", 1, 2)
	if OrNop(nil) != Nop {
		t.Error("OrNop(nil) != Nop")
	}
	c := NewCollector()
	if OrNop(c) != Tracer(c) {
		t.Error("OrNop dropped a real tracer")
	}
}

func TestCollectorAggregates(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 3; i++ {
		timer := c.StartSpan("hunt")
		time.Sleep(time.Millisecond)
		timer.End()
	}
	c.StartSpan("mine").End()
	c.Count("pairs", 5)
	c.Count("pairs", 7)
	c.Progress("hunt", 10, 100)
	c.Progress("hunt", 4, 100) // stale report must not regress the mark

	r := c.Report()
	if len(r.Stages) != 2 || r.Stages[0].Name != "hunt" || r.Stages[1].Name != "mine" {
		t.Fatalf("stages not in first-start order: %+v", r.Stages)
	}
	if r.Stages[0].Calls != 3 {
		t.Errorf("hunt calls = %d, want 3", r.Stages[0].Calls)
	}
	if r.Stages[0].WallNs < 3*int64(time.Millisecond) {
		t.Errorf("hunt wall %d ns, want >= 3ms", r.Stages[0].WallNs)
	}
	if r.Counters["pairs"] != 12 {
		t.Errorf("pairs = %d, want 12", r.Counters["pairs"])
	}
	if r.Counters["progress.hunt"] != 10 {
		t.Errorf("progress high-water = %d, want 10", r.Counters["progress.hunt"])
	}
	if r.TotalNs <= 0 {
		t.Error("total span not recorded")
	}
}

func TestCollectorJSON(t *testing.T) {
	c := NewCollector()
	c.StartSpan("mine").End()
	c.Count("keys", 2)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(r.Stages) != 1 || r.Stages[0].Name != "mine" || r.Counters["keys"] != 2 {
		t.Errorf("round-tripped report wrong: %+v", r)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				timer := c.StartSpan("hunt")
				c.Count("n", 1)
				c.Progress("hunt", int64(i), 100)
				timer.End()
			}
		}(w)
	}
	wg.Wait()
	r := c.Report()
	if r.Counters["n"] != 800 {
		t.Errorf("n = %d, want 800", r.Counters["n"])
	}
	if r.Stages[0].Calls != 800 {
		t.Errorf("calls = %d, want 800", r.Stages[0].Calls)
	}
}

func TestFuncsAndMulti(t *testing.T) {
	var started, ended []string
	var counted int64
	f := &Funcs{
		OnStageStart: func(name string) { started = append(started, name) },
		OnStageEnd:   func(name string, wall time.Duration) { ended = append(ended, name) },
		OnCount:      func(name string, delta int64) { counted += delta },
	}
	c := NewCollector()
	m := Multi(f, nil, Nop, c)
	timer := m.StartSpan("mine")
	m.Count("pairs", 3)
	timer.End()
	if len(started) != 1 || started[0] != "mine" || len(ended) != 1 {
		t.Errorf("Funcs hooks not invoked: started=%v ended=%v", started, ended)
	}
	if counted != 3 || c.Report().Counters["pairs"] != 3 {
		t.Error("count not fanned out to all tracers")
	}
	if Multi() != Nop || Multi(nil, Nop) != Nop {
		t.Error("empty Multi is not Nop")
	}
	if Multi(c) != Tracer(c) {
		t.Error("single-tracer Multi should unwrap")
	}
}

func TestFuncsNilFieldsAreNops(t *testing.T) {
	f := &Funcs{}
	f.StartSpan("x").End()
	f.Count("c", 1)
	f.Progress("x", 1, 2)
}
