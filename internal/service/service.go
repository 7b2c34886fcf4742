// Package service is the analysis daemon's HTTP layer: a stdlib net/http
// API over an internal/jobs pool running dump-analysis campaigns.
//
//	POST   /v1/jobs             submit a dump container (body), returns 201 + job
//	GET    /v1/jobs             list all jobs
//	GET    /v1/jobs/{id}        job status with per-stage progress
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/result key report (redacted unless ?reveal=keys)
//	GET    /v1/jobs/{id}/events live NDJSON telemetry stream (?cursor=N resumes)
//	GET    /v1/jobs/{id}/trace  merged Chrome-trace timeline of the job's campaign
//	GET    /metrics             Prometheus text: pool gauges + obs aggregates
//	GET    /healthz             liveness
//
// Uploads stream straight into dumpfile-backed temp storage (never into
// memory) and analysis reads them back through the streaming campaign, so
// a multi-GB dump costs the daemon one worker and never sits in memory
// (mining keeps a few bytes per litmus-passing block; see DESIGN.md). The
// paper's §III-C scale-out argument — litmus scanning is embarrassingly
// parallel across shards and machines — is what this layer packages: many
// dumps in flight, a bounded worker pool, and live per-stage progress for
// multi-hour campaigns.
//
// Recovered master keys are treated as sensitive artifacts (cf. the
// anti-forensic threat model in "Security Through Amnesia"): status and
// result endpoints expose only SHA-256 fingerprints unless the caller
// explicitly asks for key material with ?reveal=keys.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"coldboot/internal/aes"
	"coldboot/internal/core"
	"coldboot/internal/dumpfile"
	"coldboot/internal/fleet"
	"coldboot/internal/format"
	"coldboot/internal/jobs"
	"coldboot/internal/obs"
	"coldboot/internal/secret"
)

// DefaultMaxUploadBytes bounds POST /v1/jobs bodies when Config leaves
// MaxUploadBytes zero: 1 GiB of container (a 16 GiB capture is submitted
// as shards; see ROADMAP sharding item).
const DefaultMaxUploadBytes = 1 << 30

// Config tunes a Server.
type Config struct {
	// Workers caps concurrently running analysis jobs (default 1).
	Workers int
	// JobTimeout bounds each job's run time (0 = no limit).
	JobTimeout time.Duration
	// MaxUploadBytes caps the POST /v1/jobs body (default
	// DefaultMaxUploadBytes).
	MaxUploadBytes int64
	// DataDir is where uploads are spooled ("" = the OS temp dir). Spooled
	// dumps are deleted as soon as their job reaches a terminal state.
	//
	// A non-empty DataDir also turns on durability: job lifecycle events
	// are journaled through an internal/wal log under DataDir/wal before
	// they apply, and replayed on the next New — queued and mid-run hunts
	// survive kill -9. Key material rides the journal only as fingerprints
	// unless a job was submitted with ?reveal=keys.
	DataDir string
	// Role selects the daemon's fleet role: "" or RoleStandalone runs
	// campaigns in-process; RoleCoordinator additionally mounts the fleet
	// lease endpoints and runs every campaign through the worker fleet
	// (jobs wait until workers connect). The worker role has no service —
	// see fleet.Worker.
	Role string
	// LeaseTTL is the coordinator's shard lease lifetime (0 = fleet
	// default). Ignored unless Role is RoleCoordinator.
	LeaseTTL time.Duration
	// MaxAttempts configures retry of transiently failing jobs (default:
	// no retries; the pool's backoff starts at 250ms).
	MaxAttempts int
	// ShardBlocks overrides the campaign shard size (tests shrink it to
	// see many progress ticks on small fixtures).
	ShardBlocks int
	// EventBuffer caps each job's telemetry journal — the ring of recent
	// events behind GET /v1/jobs/{id}/events (0 = obs default). Slow
	// stream consumers see a gap record, never a stalled pipeline.
	EventBuffer int
	// Heartbeat is the idle interval after which the event stream emits a
	// keepalive line (default 10s).
	Heartbeat time.Duration
	// Runner overrides the analysis RunFunc (tests substitute stubs to
	// exercise scheduling without burning CPU). Nil means real analysis.
	Runner jobs.RunFunc
}

// Role values for Config.Role.
const (
	RoleStandalone  = "standalone"
	RoleCoordinator = "coordinator"
	// RoleWorker is not a service role — a worker is a bare fleet.Worker
	// loop with no HTTP surface — but cmd/coldbootd accepts it, so the
	// name lives here with its siblings.
	RoleWorker = "worker"
)

// Server is the analysis service: create with New, mount Handler, and
// Drain on shutdown.
type Server struct {
	cfg  Config
	pool *jobs.Pool
	// collector is the daemon collector: pool and fleet-board series, plus
	// each job's aggregates once the job is terminal.
	collector *obs.Collector
	mux       *http.ServeMux
	store     *walStore          // nil without a DataDir
	coord     *fleet.Coordinator // nil unless RoleCoordinator

	// telemetry indexes each job's telemetry by job ID from submit to
	// purge, so it lives exactly as long as the job record (the closed
	// journal is the event stream's end-of-file). overwritten carries the
	// ring overwrites of purged jobs' journals, so the
	// coldbootd_events_overwritten_total counter never falls.
	jmu         sync.Mutex
	telemetry   map[string]*jobTelemetry
	overwritten uint64
}

// New builds a Server and starts its worker pool. With a DataDir it also
// opens the write-ahead log, replays it, and restores the previous
// process's jobs before accepting new ones.
//
//lint:ignore ctxthread New only wires the analysis callback; the scan it references runs per-job under the job's own context
func New(cfg Config) (*Server, error) {
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 10 * time.Second
	}
	switch cfg.Role {
	case "", RoleStandalone, RoleCoordinator:
	default:
		return nil, fmt.Errorf("service: unknown role %q (want %s or %s)", cfg.Role, RoleStandalone, RoleCoordinator)
	}
	s := &Server{
		cfg:       cfg,
		collector: obs.NewCollector(),
		mux:       http.NewServeMux(),
		telemetry: make(map[string]*jobTelemetry),
	}
	if cfg.Role == RoleCoordinator {
		// The coordinator's boards observe lease waits and shard times
		// into the daemon collector; each campaign's spans stay in its
		// job's collector.
		s.coord = fleet.NewCoordinator(cfg.LeaseTTL, s.collector)
	}
	var entries []jobs.LedgerEntry
	if cfg.DataDir != "" {
		var err error
		s.store, entries, err = openStore(cfg.DataDir)
		if err != nil {
			return nil, err
		}
	}
	run := cfg.Runner
	if run == nil {
		run = s.runAnalysis
	}
	opts := jobs.Options{
		Workers:     cfg.Workers,
		JobTimeout:  cfg.JobTimeout,
		MaxAttempts: cfg.MaxAttempts,
		Tracer:      s.collector,
		OnJobDone:   s.jobDone,
	}
	if s.store != nil {
		opts.Journal = s.store
		opts.EncodePayload = encodePayload
		opts.EncodeResult = encodeResult
	}
	s.pool = jobs.NewPool(run, opts)
	if s.store != nil {
		if err := s.restore(entries); err != nil {
			s.store.Close()
			return nil, fmt.Errorf("service: restoring journaled jobs: %w", err)
		}
	}
	if s.coord != nil {
		s.coord.Register(s.mux)
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the job pool (cancel-on-shutdown, tests).
func (s *Server) Pool() *jobs.Pool { return s.pool }

// Collector exposes the daemon collector: the pool's queue-wait and run
// histograms, the fleet boards' lease-wait and shard histograms, and the
// aggregates of every job that reached a terminal state.
func (s *Server) Collector() *obs.Collector { return s.collector }

// Spans returns the daemon collector's spans followed by those of every job
// the server still retains. Span IDs are unique within the process, so the
// set renders as one trace document (coldbootd -trace-chrome).
func (s *Server) Spans() []obs.SpanRecord {
	spans := s.collector.Spans()
	s.jmu.Lock()
	defer s.jmu.Unlock()
	for _, tel := range s.telemetry {
		spans = append(spans, tel.col.Spans()...)
	}
	return spans
}

// newTelemetry creates a job's journaled collector and trace ID.
func (s *Server) newTelemetry() *jobTelemetry {
	return &jobTelemetry{
		col:     obs.NewJournaledCollector(s.cfg.EventBuffer),
		traceID: obs.NewTraceID(),
	}
}

// addTelemetry registers a job's telemetry under its ID.
func (s *Server) addTelemetry(id string, tel *jobTelemetry) {
	s.jmu.Lock()
	s.telemetry[id] = tel
	s.jmu.Unlock()
}

// telemetryOf returns a retained job's telemetry, nil for unknown, purged
// or restored-terminal jobs.
func (s *Server) telemetryOf(id string) *jobTelemetry {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return s.telemetry[id]
}

// foldLocked adds a job's aggregates to the daemon collector, once
// (s.jmu held): from then on /metrics reads them there.
func (s *Server) foldLocked(tel *jobTelemetry) {
	if !tel.folded {
		s.collector.Fold(tel.col)
		tel.folded = true
	}
}

// Drain gracefully shuts the worker pool down: running jobs finish, queued
// jobs are journaled as abandoned (requeued on the next boot) and counted
// in Stats.Abandoned, new submissions get 503. The write-ahead log is
// closed once the pool is quiet. In the coordinator role the fleet's lease
// calls are then released and refused, so an HTTP shutdown that follows
// does not wait out workers' held lease calls.
func (s *Server) Drain(ctx context.Context) error {
	err := s.pool.Drain(ctx)
	if s.coord != nil {
		s.coord.Close()
	}
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// jobDone is the pool's terminal hook: close the job's event journal so
// streaming readers observe end-of-stream, fold the job's aggregates into
// the daemon collector, then wipe and delete the spooled container (only
// needed while the job can still run). The stream ends first, so a client
// waiting for it does not also wait for the wipe. The wipe still runs on
// the pool's goroutine, so Drain returns only after it.
func (s *Server) jobDone(j *jobs.Job) {
	if pl, ok := j.Payload().(*dumpJob); ok {
		if pl.tel != nil {
			pl.tel.col.Journal().Close()
			s.jmu.Lock()
			s.foldLocked(pl.tel)
			s.jmu.Unlock()
		}
		if pl.Path != "" {
			discardSpool(pl.Path)
		}
	}
}

// spoolPattern names upload spools (os.CreateTemp pattern and
// filepath.Glob pattern alike).
const spoolPattern = "coldbootd-*.cbdump"

// discardSpool overwrites a spooled container with zeros, then unlinks it.
// A spool holds the victim's memory, key schedules included, and a bare
// unlink leaves those bytes recoverable from the backing store, so every
// path that drops a spool goes through here: a finished job, a failed
// upload and a refused submit. A failed wipe still unlinks: no caller can
// do more with the file.
func discardSpool(path string) {
	_ = secret.WipeFile(path)
	os.Remove(path)
}

// handleSubmit streams the posted container to disk and enqueues its
// analysis. Query parameters: priority (int, default 0, higher first),
// repair (0 off, 1 single-bit window repair; 2 is still accepted and
// means 1), variant (128/192/256, default 256),
// formats (comma-separated target-format names, default all registered),
// reveal=keys (persist raw recovered masters in the durable journal, so
// they survive a restart; default: fingerprints only).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	pl := &dumpJob{Variant: aes.AES256}
	q := r.URL.Query()
	if v := q.Get("reveal"); v != "" {
		if v != "keys" {
			httpError(w, http.StatusBadRequest, "bad reveal %q (want keys)", v)
			return
		}
		pl.Reveal = true
	}
	priority := 0
	if v := q.Get("priority"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad priority %q", v)
			return
		}
		priority = n
	}
	if v := q.Get("repair"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > 2 {
			httpError(w, http.StatusBadRequest, "bad repair %q (want 0..2)", v)
			return
		}
		pl.RepairFlips = min(n, 1)
	}
	if v := q.Get("variant"); v != "" {
		switch v {
		case "128":
			pl.Variant = aes.AES128
		case "192":
			pl.Variant = aes.AES192
		case "256":
			pl.Variant = aes.AES256
		default:
			httpError(w, http.StatusBadRequest, "bad variant %q (want 128/192/256)", v)
			return
		}
	}
	if v := q.Get("formats"); v != "" {
		specs := format.ParseSpec(v)
		if len(specs) == 0 {
			httpError(w, http.StatusBadRequest, "bad formats %q (want comma-separated names from %v)", v, core.KnownFormats())
			return
		}
		known := make(map[string]bool)
		for _, n := range core.KnownFormats() {
			known[n] = true
		}
		for _, n := range specs {
			if !known[n] {
				httpError(w, http.StatusBadRequest, "unknown format %q (known: %v)", n, core.KnownFormats())
				return
			}
		}
		pl.Formats = specs
	}

	tmp, err := os.CreateTemp(s.cfg.DataDir, spoolPattern)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "spooling upload: %v", err)
		return
	}
	pl.Path = tmp.Name()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	meta, imageBytes, err := dumpfile.Spool(tmp, body)
	closeErr := tmp.Close()
	if err == nil {
		err = closeErr
	}
	if err == nil && imageBytes%int64(core.BlockBytes) != 0 {
		err = errInvalidAlignment(imageBytes)
	}
	if err != nil {
		discardSpool(pl.Path)
		var maxBytes *http.MaxBytesError
		var sink *dumpfile.SinkError
		switch {
		case errors.As(err, &maxBytes):
			httpError(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", s.cfg.MaxUploadBytes)
		case errors.As(err, &sink):
			httpError(w, http.StatusInternalServerError, "spooling upload: %v", err)
		default:
			httpError(w, http.StatusBadRequest, "invalid dump container: %v", err)
		}
		return
	}
	pl.Meta = meta
	pl.ImageBytes = imageBytes
	// Create the telemetry before Submit: a fast job could run and reach
	// its terminal hook before Submit returns.
	pl.tel = s.newTelemetry()

	snap, err := s.pool.Submit(pl, priority)
	if err != nil {
		discardSpool(pl.Path)
		if errors.Is(err, jobs.ErrDraining) {
			httpError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		httpError(w, http.StatusInternalServerError, "submitting job: %v", err)
		return
	}
	s.addTelemetry(snap.ID, pl.tel)
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	writeJSON(w, http.StatusCreated, statusDoc(snap, pl, pl.tel))
}

func errInvalidAlignment(imageBytes int64) error {
	return fmt.Errorf("image length %d is not a multiple of the %d-byte scrambler block",
		imageBytes, core.BlockBytes)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	snaps := s.pool.List()
	docs := make([]any, 0, len(snaps))
	for _, snap := range snaps {
		docs = append(docs, statusDoc(snap, nil, s.telemetryOf(snap.ID)))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": docs})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.pool.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, statusDoc(snap, nil, s.telemetryOf(snap.ID)))
}

// handleCancel cancels an active job (202) or, when the job has already
// reached a terminal state, purges it: the result report's key material is
// destroyed, the event journal is dropped, and the job disappears from the
// pool (subsequent GETs 404). DELETE is thus "make this job stop existing":
// once on a live job to stop it, once more to erase what it recovered.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.pool.Cancel(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		httpError(w, http.StatusNotFound, "no such job")
	case errors.Is(err, jobs.ErrFinished):
		s.purgeJob(id, snap)
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "state": snap.State, "purged": true})
	case err != nil:
		httpError(w, http.StatusInternalServerError, "canceling: %v", err)
	default:
		// 202: a running job reaches canceled as soon as the campaign
		// observes its context — within one scan chunk.
		writeJSON(w, http.StatusAccepted, statusDoc(snap, nil, s.telemetryOf(id)))
	}
}

// purgeJob erases a terminal job: pool bookkeeping, telemetry, and — the
// part that matters — every copy of recovered key material in its report.
// The job's aggregates stay in the daemon collector and its journal's
// overwrite count in the server total, so no /metrics counter falls.
func (s *Server) purgeJob(id string, snap jobs.Snapshot) {
	if removed, err := s.pool.Remove(id); err == nil {
		snap = removed
	}
	if report, ok := snap.Result.(*ResultReport); ok {
		report.wipe()
	}
	s.jmu.Lock()
	if tel := s.telemetry[id]; tel != nil {
		s.foldLocked(tel)
		s.overwritten += tel.col.Journal().Overwritten()
		delete(s.telemetry, id)
	}
	s.jmu.Unlock()
}

// handleTrace serves a job's merged campaign timeline as Chrome Trace
// Event JSON (load in Perfetto / chrome://tracing). The document carries
// every completed span in the job's collector — on a coordinator that
// includes the span trees workers shipped with their shard completions,
// one named track per worker, clock-corrected onto the coordinator's
// timebase. Spans still in flight (a running job's open stages) appear
// once they end; re-fetch after completion for the full picture.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.pool.Get(id); !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	tel := s.telemetryOf(id)
	if tel == nil || len(tel.col.Stages()) == 0 {
		httpError(w, http.StatusNotFound, "job %s has no trace yet (analysis not started)", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tel.col.WriteChromeTrace(w)
}

// handleResult serves the key report of a finished job. Key material is
// redacted to SHA-256 fingerprints unless ?reveal=keys.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.pool.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if !snap.State.Terminal() {
		httpError(w, http.StatusConflict, "job is %s; result not ready", snap.State)
		return
	}
	report, ok := snap.Result.(*ResultReport)
	if !ok || report == nil {
		httpError(w, http.StatusNotFound, "job %s produced no result (state %s: %s)", snap.ID, snap.State, snap.Error)
		return
	}
	writeJSON(w, http.StatusOK, report.redacted(r.URL.Query().Get("reveal") == "keys"))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()
	status := "ok"
	if st.Draining {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": status, "pool": st})
}

// statusDoc merges a job snapshot, the job's telemetry (nil for jobs
// restored terminal from the journal) and submission facts worth echoing
// (image size, acquisition metadata) into one JSON document. Stages,
// progress, format tallies and the trace ID all come from the job's
// collector: the headline progress is the "campaign" stage's block count,
// forced to 1 for jobs that completed successfully.
func statusDoc(snap jobs.Snapshot, pl *dumpJob, tel *jobTelemetry) map[string]any {
	var (
		stages  []obs.StageReport
		formats map[string]int64
	)
	if tel != nil {
		stages, formats = tel.col.Stages(), tel.col.Counters("format.")
	}
	var done, total int64
	for _, st := range stages {
		if st.Name == "campaign" {
			done, total = st.Done, st.Total
		}
	}
	progress := 0.0
	if total > 0 {
		progress = float64(done) / float64(total)
	}
	if snap.State == jobs.StateDone {
		progress = 1
	}
	doc := map[string]any{
		"id":             snap.ID,
		"state":          snap.State,
		"priority":       snap.Priority,
		"attempts":       snap.Attempts,
		"progress":       progress,
		"progress_done":  done,
		"progress_total": total,
	}
	if snap.Error != "" {
		doc["error"] = snap.Error
	}
	if snap.SubmittedAt != "" {
		doc["submitted_at"] = snap.SubmittedAt
	}
	if snap.StartedAt != "" {
		doc["started_at"] = snap.StartedAt
	}
	if snap.FinishedAt != "" {
		doc["finished_at"] = snap.FinishedAt
	}
	if len(stages) > 0 {
		// The analysis has opened its job span.
		doc["stages"] = stages
		doc["trace_id"] = tel.traceID
	}
	if len(formats) > 0 {
		doc["formats"] = formats
	}
	if report, ok := snap.Result.(*ResultReport); ok && report != nil {
		doc["keys_found"] = len(report.Keys)
	}
	if pl != nil {
		doc["image_bytes"] = pl.ImageBytes
		doc["variant"] = pl.Variant.String()
		if len(pl.Formats) > 0 {
			doc["formats_requested"] = pl.Formats
		}
		doc["meta"] = pl.Meta
	}
	return doc
}

func writeJSON(w http.ResponseWriter, code int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]any{"error": fmt.Sprintf(format, args...)})
}
