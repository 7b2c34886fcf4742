package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"coldboot/internal/obs"
)

// setupRounds is how many times a run sets up (fixtures, references,
// server start-up); setup_s is their median. Every round but the last is
// torn down again.
const setupRounds = 3

// tracing is a traced run's instrumentation: the span recorder and the
// endpoint timings every timing transport shares. enabled switches the
// transports from forwarding to timing for the traced half of the run.
type tracing struct {
	rec     *recorder
	stats   *endpointStats
	enabled atomic.Bool
}

func (t *tracing) on() bool { return t != nil && t.enabled.Load() }

// newSpan reserves a span ID while tracing is on (0 otherwise).
func (t *tracing) newSpan() uint64 {
	if !t.on() {
		return 0
	}
	return t.rec.newID()
}

// span records a client-side span reserved with newSpan.
func (t *tracing) span(id uint64, name string, start time.Time, d time.Duration, key, value string) {
	if id == 0 {
		return
	}
	t.rec.add(id, 0, "client", name, start, d, obs.A(key, value))
}

// setup is one set-up round's products.
type setup struct {
	fixtures []*fixture
	h        *harness
	took     time.Duration
}

// setUp generates the workload's fixtures one at a time, computes their
// library references one per CPU at a time, then starts the service.
func setUp(ctx context.Context, wl benchWorkload, seed int64, dir string, tr *tracing, onStart func(string)) (*setup, error) {
	start := time.Now()
	s := &setup{fixtures: make([]*fixture, wl.fixtures)}
	for i := range s.fixtures {
		fx, err := buildFixture(wl.fixture, seed, i)
		if err != nil {
			return nil, fmt.Errorf("fixture %d: %w", i, err)
		}
		s.fixtures[i] = fx
		// Generation leaves several image-sized buffers behind; collect
		// them before the next fixture adds its own.
		runtime.GC()
	}
	errs := make([]error, wl.fixtures)
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i, fx := range s.fixtures {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fx.reference, errs[i] = referenceKeys(ctx, fx, wl.repair)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	h, err := startHarness(wl, dir, tr)
	if err != nil {
		return nil, err
	}
	s.h = h
	s.took = time.Since(start)
	if onStart != nil {
		onStart(h.base)
	}
	return s, nil
}

// run executes one benchmark run: set-up rounds, the measured closed loop
// (in a traced run: an untraced half, then a traced half, then the
// library pipeline timed layer by layer), and teardown on every path.
func run(ctx context.Context, o options, wl benchWorkload) (rep *report, err error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()

	var tr *tracing
	if o.trace {
		tr = &tracing{rec: newRecorder(), stats: newEndpointStats()}
	}
	clients := min(wl.clients, runtime.NumCPU())

	var (
		s       *setup
		setups  []float64
		prevRef [][]string
	)
	for round := 0; round < setupRounds; round++ {
		// Drop the previous round's fixtures before generating new ones.
		s = nil
		runtime.GC()
		next, err := setUp(ctx, wl, o.seed, dir, tr, o.onStart)
		if err != nil {
			return nil, fmt.Errorf("set-up round %d: %w", round+1, err)
		}
		setups = append(setups, next.took.Seconds())
		for i, fx := range next.fixtures {
			if prevRef != nil && !slices.Equal(fx.reference, prevRef[i]) {
				next.h.close()
				return nil, fmt.Errorf("library reference for fixture %d differs between set-up rounds", i)
			}
		}
		if round < setupRounds-1 {
			if err := next.h.close(); err != nil {
				return nil, err
			}
			prevRef = prevRef[:0]
			for _, fx := range next.fixtures {
				prevRef = append(prevRef, fx.reference)
			}
		}
		s = next
	}
	defer func() {
		if cerr := s.h.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	var done atomic.Int64
	hook := func(jobOutcome) error {
		if o.failAfter > 0 && done.Add(1) >= int64(o.failAfter) {
			return errors.New("forced failure")
		}
		return nil
	}
	window := time.Duration(o.seconds) * time.Second
	rep = &report{wl: wl, o: o, clients: clients, setups: setups, fixtures: s.fixtures}
	if !o.trace {
		loopStart := time.Now()
		rep.outcomes, err = loop(ctx, s.h, wl, s.fixtures, clients, window, o.seed, nil, hook)
		rep.loopWall = time.Since(loopStart)
		if err != nil {
			return nil, err
		}
		rep.endToEnd()
		return rep, nil
	}

	// Traced run: the untraced half gives the baseline the tracing
	// overhead is measured against.
	untraced, err := loop(ctx, s.h, wl, s.fixtures, clients, window/2, o.seed, tr, hook)
	if err != nil {
		return nil, err
	}
	tr.enabled.Store(true)
	traced, err := loop(ctx, s.h, wl, s.fixtures, clients, window-window/2, o.seed+1, tr, hook)
	tr.enabled.Store(false)
	if err != nil {
		return nil, err
	}
	rep.outcomes = append(untraced, traced...)
	var layers []layerTimes
	for _, fx := range s.fixtures {
		lt, err := timePipeline(ctx, fx, wl.repair, dir, tr.rec)
		if err != nil {
			return nil, err
		}
		layers = append(layers, lt)
	}
	rep.perLayer(layers, tr, s.h)
	rep.traceFile = filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", wl.name, o.seed))
	if err := tr.rec.writeFile(rep.traceFile); err != nil {
		return nil, err
	}
	return rep, nil
}

// peakRSSMiB reads the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
