package main

import (
	"context"
	"net"
	"net/url"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tinyWorkload shrinks a workload's dumps so a test run takes seconds.
func tinyWorkload(t *testing.T, name string) benchWorkload {
	t.Helper()
	wl, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	wl.fixture.imageBytes = 1 << 20
	wl.fixture.masters = min(wl.fixture.masters, 4)
	wl.fixtures = 2
	return wl
}

// TestForcedFailureTearsDown aborts a fleet run mid-loop and requires that
// nothing it started survives: every listener is closed, the temp data
// dir is gone, and the goroutine count is back to where it started.
func TestForcedFailureTearsDown(t *testing.T) {
	out := t.TempDir()
	before := runtime.NumGoroutine()
	var bases []string
	o := options{
		workload:  "fleet-small",
		seed:      3,
		seconds:   30,
		out:       out,
		failAfter: 2,
		onStart:   func(base string) { bases = append(bases, base) },
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, err := run(ctx, o, tinyWorkload(t, o.workload))
	if err == nil || !strings.Contains(err.Error(), "forced failure") {
		t.Fatalf("run error = %v, want the forced failure", err)
	}
	if len(bases) != setupRounds {
		t.Fatalf("saw %d server starts, want %d", len(bases), setupRounds)
	}
	for _, base := range bases {
		u, err := url.Parse(base)
		if err != nil {
			t.Fatal(err)
		}
		if c, err := net.DialTimeout("tcp", u.Host, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts connections", u.Host)
		}
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind in the output dir: %s", e.Name())
	}
	// Goroutines that were told to stop may take a moment to return.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines after the run, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

// TestCanceledRunTearsDown cancels a standalone run's context mid-loop,
// as SIGINT does, and requires the same clean teardown.
func TestCanceledRunTearsDown(t *testing.T) {
	out := t.TempDir()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	starts := 0
	canceled := make(chan time.Time, 1)
	o := options{
		workload: "decay-repair",
		seed:     4,
		seconds:  30,
		out:      out,
		onStart: func(string) {
			// Cancel a second into the measured loop.
			if starts++; starts == setupRounds {
				time.AfterFunc(time.Second, func() {
					canceled <- time.Now()
					cancel()
				})
			}
		},
	}
	if _, err := run(ctx, o, tinyWorkload(t, o.workload)); err == nil {
		t.Fatal("canceled run returned no error")
	}
	select {
	case at := <-canceled:
		if took := time.Since(at); took > 20*time.Second {
			t.Errorf("canceled run took %v to return", took)
		}
	default:
		t.Fatal("run returned before the loop was canceled")
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind in the output dir: %s", e.Name())
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines after the run, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

// TestTracedRunReportsEveryLayer runs a short traced fleet run and checks
// the per-layer report: every metric present, the output check passed,
// and the layer self times cover the library pipeline's wall time.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	out := t.TempDir()
	o := options{workload: "fleet-small", seed: 5, seconds: 4, trace: true, out: out}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := run(ctx, o, tinyWorkload(t, o.workload))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Fatalf("output check failed: %v", rep.errs)
	}
	got := map[string]float64{}
	for _, m := range rep.metrics {
		got[m.name] = m.value
	}
	for _, name := range []string{"core.mine_s", "core.scan_s", "core.repair_s", "service.submit_s", "fleet.lease_call_s", "fleet.data_mb", "pipeline.self_frac"} {
		if _, ok := got[name]; !ok {
			t.Errorf("traced report lacks %s", name)
		}
	}
	if f := got["pipeline.self_frac"]; f < 0.95 || f > 1.0001 {
		t.Errorf("pipeline.self_frac = %v, want within [0.95, 1]", f)
	}
	if got["fleet.data_mb"] <= 0 {
		t.Errorf("fleet.data_mb = %v, want shard bytes transferred", got["fleet.data_mb"])
	}
	if _, err := os.Stat(rep.traceFile); err != nil {
		t.Errorf("trace file: %v", err)
	}
}
