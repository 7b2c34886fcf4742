package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"coldboot/internal/fleet"
	"coldboot/internal/obs"
	"coldboot/internal/service"
)

// Timeouts. Every HTTP call runs under callTimeout except the event
// stream, which lasts as long as the job and runs under jobTimeout.
const (
	callTimeout  = 30 * time.Second
	jobTimeout   = 90 * time.Second
	drainTimeout = 30 * time.Second
)

// harness is one running service: the server, its loopback listener, the
// in-process fleet workers (coordinator role) and their HTTP transport.
type harness struct {
	svc      *service.Server
	srv      *http.Server
	base     string
	dataDir  string
	serveErr chan error

	// api and stream are the benchmark client's HTTP clients: stream
	// carries the job event streams, api every other call.
	api, stream *http.Client

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
	transport   *http.Transport
	closeOnce   sync.Once
}

// newTransport returns a private loopback transport: no proxy, and its
// connections close with CloseIdleConnections at teardown.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
		IdleConnTimeout:     30 * time.Second,
	}
}

// wrap returns the round tripper clients use: the plain transport, or the
// timing layer around it in a traced run.
func (t *tracing) wrap(next http.RoundTripper, track string) http.RoundTripper {
	if t == nil {
		return next
	}
	return &timingTransport{next: next, rec: t.rec, track: track, enabled: &t.enabled, stats: t.stats}
}

// startHarness starts the service the way cmd/coldbootd does with its
// default flags — two analysis workers, no job timeout, default upload
// cap, one attempt, default shard size and lease TTL — listening on a
// loopback port with a fresh data dir under parent. In the coordinator
// role it also starts wl.fleetWorkers fleet.Workers with coldbootd's
// worker defaults. On error everything started so far is stopped.
func startHarness(wl benchWorkload, parent string, tr *tracing) (*harness, error) {
	dataDir, err := os.MkdirTemp(parent, "data-")
	if err != nil {
		return nil, err
	}
	h := &harness{dataDir: dataDir, serveErr: make(chan error, 1), transport: newTransport()}
	h.svc, err = service.New(service.Config{
		Workers:        2,
		MaxUploadBytes: service.DefaultMaxUploadBytes,
		DataDir:        dataDir,
		MaxAttempts:    1,
		Role:           wl.role,
		LeaseTTL:       30 * time.Second,
	})
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, fmt.Errorf("starting service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		h.svc.Drain(drainCtx)
		cancel()
		os.RemoveAll(dataDir)
		return nil, err
	}
	h.base = "http://" + ln.Addr().String()
	rt := tr.wrap(h.transport, "client")
	h.api = &http.Client{Timeout: callTimeout, Transport: rt}
	h.stream = &http.Client{Timeout: jobTimeout, Transport: rt}
	h.srv = &http.Server{Handler: h.svc.Handler()}
	go func() { h.serveErr <- h.srv.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	h.stopWorkers = cancel
	for i := 1; i <= wl.fleetWorkers; i++ {
		name := "w-" + strconv.Itoa(i)
		w := &fleet.Worker{
			Base:   h.base,
			Name:   name,
			Tracer: obs.NewCollector(),
			Client: &http.Client{Timeout: callTimeout, Transport: tr.wrap(h.transport, name)},
		}
		h.workers.Add(1)
		go func() {
			defer h.workers.Done()
			w.Run(ctx)
		}()
	}
	return h, nil
}

// close stops everything the harness started, on every exit path: cancel
// the jobs still live (so Drain need not wait for them), Drain the pool,
// stop the fleet workers, shut the HTTP server down, drop idle
// connections and remove the data dir. It is idempotent.
func (h *harness) close() error {
	var err error
	h.closeOnce.Do(func() {
		for _, snap := range h.svc.Pool().List() {
			if !snap.State.Terminal() {
				h.svc.Pool().Cancel(snap.ID)
			}
		}
		drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if derr := h.svc.Drain(drainCtx); derr != nil {
			err = fmt.Errorf("draining service: %w", derr)
		}
		h.stopWorkers()
		h.workers.Wait()
		if serr := h.srv.Shutdown(drainCtx); serr != nil {
			h.srv.Close()
		}
		if serr := <-h.serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		h.transport.CloseIdleConnections()
		if rerr := os.RemoveAll(h.dataDir); rerr != nil && err == nil {
			err = rerr
		}
	})
	return err
}
