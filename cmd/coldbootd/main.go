// Command coldbootd is the long-running dump-analysis daemon: it accepts
// memory-dump containers over HTTP, schedules bounded concurrent attack
// campaigns over them, and reports live per-stage progress, redacted key
// results, and Prometheus metrics.
//
//	coldbootd -listen :8080 -workers 2 -job-timeout 2h -data-dir /var/tmp
//
// With -data-dir set the job store is durable: every lifecycle mutation
// is journaled to a write-ahead log under <data-dir>/wal before it
// applies, and on restart the daemon replays it — queued and mid-run
// hunts resume, finished jobs stay queryable (key material as
// fingerprints unless the job was submitted with ?reveal=keys).
//
// -role splits the daemon across machines:
//
//	coldbootd -role standalone            today's single-process daemon (default)
//	coldbootd -role coordinator           serve the API and shard every campaign
//	                                      to workers over /v1/shards/* leases
//	coldbootd -role worker -coordinator http://host:8080
//	                                      no API; lease shards, scan, report back
//
// API (see internal/service and DESIGN.md "Analysis service"):
//
//	POST   /v1/jobs             submit a dump container (body)
//	GET    /v1/jobs/{id}        status with per-stage progress
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/jobs/{id}/result key report (?reveal=keys for key material)
//	GET    /v1/jobs/{id}/trace  merged Chrome-trace timeline (Perfetto-loadable)
//	POST   /v1/shards/lease     (coordinator) worker lease protocol
//	GET    /metrics             Prometheus text
//	GET    /healthz             liveness
//
// Tracing: -trace-chrome FILE writes the process's span timeline as Chrome
// Trace Event JSON on exit (any role). On a standalone or coordinator
// daemon that is every job it still retains, each on its own track; on a
// coordinator it includes the span trees workers shipped with their shard
// completions — one named track per worker, clock-corrected onto the
// coordinator's timebase. Workers additionally take -metrics-addr to expose their local
// pipeline histograms and span-drop counters on a separate listener.
//
// -pprof-addr mounts net/http/pprof on a second, separate listener so the
// profiling surface can be firewalled independently of the service API:
//
//	coldbootd -listen :8080 -pprof-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// On SIGTERM/SIGINT the daemon stops accepting work (new submissions get
// 503), lets running analyses finish (bounded by -drain-timeout), and
// exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"coldboot/internal/fleet"
	"coldboot/internal/obs"
	"coldboot/internal/service"

	// Register every target-format scanner (aesxts, chacha20, luks2) so
	// submitted jobs hunt all of them unless ?formats= narrows the set.
	_ "coldboot/internal/format/all"
)

// daemonOpts carries the parsed flag set.
type daemonOpts struct {
	listen       string
	workers      int
	jobTimeout   time.Duration
	maxUpload    int64
	dataDir      string
	retries      int
	shardBlocks  int
	drainTimeout time.Duration
	addrFile     string
	pprofAddr    string
	role         string
	coordinator  string
	workerName   string
	leaseTTL     time.Duration
	traceChrome  string
	metricsAddr  string
}

func main() {
	var o daemonOpts
	flag.StringVar(&o.listen, "listen", ":8080", "listen address (host:port; :0 picks a free port)")
	flag.IntVar(&o.workers, "workers", 2, "concurrent analysis jobs")
	flag.DurationVar(&o.jobTimeout, "job-timeout", 0, "per-job run budget (0 = unlimited)")
	flag.Int64Var(&o.maxUpload, "max-upload", service.DefaultMaxUploadBytes, "largest accepted upload in bytes")
	flag.StringVar(&o.dataDir, "data-dir", "", "directory for spooled uploads and the durable job journal (default: OS temp dir, no durability)")
	flag.IntVar(&o.retries, "retries", 1, "total attempts for transiently failing jobs")
	flag.IntVar(&o.shardBlocks, "shard-blocks", 0, "campaign shard size in blocks (0 = default; small values yield fine-grained progress and cancellation)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Minute, "how long shutdown waits for running jobs")
	flag.StringVar(&o.addrFile, "addr-file", "", "write the bound address to this file once listening (for scripts using :0)")
	flag.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this separate address (empty = profiling off)")
	flag.StringVar(&o.role, "role", service.RoleStandalone, "fleet role: standalone, coordinator, or worker")
	flag.StringVar(&o.coordinator, "coordinator", "", "coordinator base URL (required for -role worker)")
	flag.StringVar(&o.workerName, "worker-name", "", "this worker's name in leases and metrics (default: hostname-pid)")
	flag.DurationVar(&o.leaseTTL, "lease-ttl", 30*time.Second, "coordinator shard lease lifetime; workers heartbeat a few times per TTL")
	flag.StringVar(&o.traceChrome, "trace-chrome", "", "write this process's span timeline as Chrome Trace Event JSON to this file on exit")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "(worker role) serve Prometheus /metrics on this separate address; other roles serve /metrics on -listen")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix("coldbootd: ")
	var err error
	if o.role == service.RoleWorker {
		err = runWorker(o)
	} else {
		err = run(o)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// runWorker is the -role worker loop: no HTTP surface of its own, just a
// fleet client leasing shards from the coordinator until signalled.
func runWorker(o daemonOpts) error {
	if o.coordinator == "" {
		return fmt.Errorf("-role worker requires -coordinator URL")
	}
	name := o.workerName
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		name = host + "-" + strconv.Itoa(os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The worker's collector is its local observability root: scans trace
	// into it (in addition to shipping telemetry with each completion), the
	// optional -metrics-addr listener reports it, and -trace-chrome writes
	// it out on exit.
	col := obs.NewCollector()
	if o.metricsAddr != "" {
		stopMetrics, err := serveWorkerMetrics(o.metricsAddr, col)
		if err != nil {
			return err
		}
		defer stopMetrics()
	}
	if o.traceChrome != "" {
		defer func() {
			if err := writeChromeTrace(col.Spans(), o.traceChrome); err != nil {
				log.Printf("writing -trace-chrome: %v", err)
			}
		}()
	}
	log.Printf("worker %s leasing from %s", name, o.coordinator)
	w := &fleet.Worker{Base: o.coordinator, Name: name, Tracer: col}
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	log.Printf("worker %s stopped", name)
	return nil
}

func run(o daemonOpts) error {
	svc, err := service.New(service.Config{
		Workers:        o.workers,
		JobTimeout:     o.jobTimeout,
		MaxUploadBytes: o.maxUpload,
		DataDir:        o.dataDir,
		MaxAttempts:    o.retries,
		ShardBlocks:    o.shardBlocks,
		Role:           o.role,
		LeaseTTL:       o.leaseTTL,
	})
	if err != nil {
		return err
	}
	if o.traceChrome != "" {
		defer func() {
			if err := writeChromeTrace(svc.Spans(), o.traceChrome); err != nil {
				log.Printf("writing -trace-chrome: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	if o.addrFile != "" {
		if err := os.WriteFile(o.addrFile, []byte(addr+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}
	log.Printf("listening on %s (role %s, %d workers, max upload %d bytes)", addr, o.role, o.workers, o.maxUpload)

	if o.pprofAddr != "" {
		stopPprof, err := servePprof(o.pprofAddr)
		if err != nil {
			ln.Close()
			return err
		}
		defer stopPprof()
	}

	httpSrv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately

	log.Printf("shutting down: draining running jobs (up to %v)", o.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	// Drain the pool first — running campaigns finish, queued jobs are
	// abandoned, new submissions get 503 — while the HTTP server stays up
	// so operators can keep polling progress. Only then close the server.
	drainErr := svc.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if drainErr != nil {
		return fmt.Errorf("drain interrupted with jobs still running: %w", drainErr)
	}
	log.Printf("drained cleanly")
	return nil
}

// servePprof mounts the net/http/pprof handlers on their own listener and
// mux — deliberately not the service mux, so operators can bind profiling
// to loopback while the API listens publicly. The returned func closes the
// listener.
func servePprof(addr string) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("pprof server: %v", err)
		}
	}()
	return func() { srv.Close() }, nil
}

// serveWorkerMetrics exposes a worker's local collector as Prometheus text
// on its own listener — workers have no service mux, but their pipeline
// histograms and span-drop counters are still worth scraping. The returned
// func closes the listener.
func serveWorkerMetrics(addr string, col *obs.Collector) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		col.Report().WritePrometheus(w, "coldbootd_pipeline")
	})
	log.Printf("worker metrics on http://%s/metrics", ln.Addr())
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("metrics server: %v", err)
		}
	}()
	return func() { srv.Close() }, nil
}

// writeChromeTrace dumps completed spans as Chrome Trace Event JSON,
// loadable in Perfetto or chrome://tracing.
func writeChromeTrace(spans []obs.SpanRecord, path string) error {
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
