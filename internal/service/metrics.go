package service

import (
	"fmt"
	"net/http"

	"coldboot/internal/obs"
)

// handleMetrics serves the Prometheus text endpoint: pool gauges (queue
// depth, running workers, terminal-state totals) followed by the pipeline
// aggregates (per-stage wall time and calls, candidate counters,
// histograms) of every job the daemon has run.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := s.pool.Stats()
	report := s.pipelineReport()
	type gauge struct {
		name, help string
		typ        string
		value      int
	}
	gauges := []gauge{
		{"coldbootd_workers", "Size of the analysis worker pool.", "gauge", st.Workers},
		{"coldbootd_jobs_queued", "Jobs waiting for a worker.", "gauge", st.Queued},
		{"coldbootd_jobs_running", "Jobs currently analyzing.", "gauge", st.Running},
		{"coldbootd_jobs_done_total", "Jobs that finished successfully.", "counter", st.Done},
		{"coldbootd_jobs_failed_total", "Jobs that failed permanently.", "counter", st.Failed},
		{"coldbootd_jobs_canceled_total", "Jobs canceled by operators.", "counter", st.Canceled},
		{"coldbootd_jobs_abandoned_total", "Queued jobs a drain left for the next boot to requeue.", "counter", st.Abandoned},
		{"coldbootd_journal_errors_total", "Post-submit journal writes that failed (in-memory state moved on).", "counter", st.JournalErrors},
		{"coldbootd_draining", "1 while the daemon is draining for shutdown.", "gauge", boolGauge(st.Draining)},
	}
	if s.store != nil {
		ws := s.store.stats()
		gauges = append(gauges,
			gauge{"coldbootd_wal_records", "Journal events held past the last snapshot.", "gauge", ws.Records},
			gauge{"coldbootd_wal_compact_errors_total", "Failed snapshot compactions (log kept growing, no events lost).", "counter", ws.CompactErrs},
			gauge{"coldbootd_wal_torn_bytes", "Trailing bytes boot-time replay discarded as a torn write.", "gauge", int(ws.TornBytes)},
		)
	}
	if s.coord != nil {
		fs := s.coord.Stats()
		gauges = append(gauges,
			gauge{"coldbootd_fleet_workers_alive", "Workers that contacted the coordinator within two lease TTLs.", "gauge", fs.WorkersAlive},
			gauge{"coldbootd_fleet_campaigns", "Fleet campaigns currently running.", "gauge", fs.Campaigns},
			gauge{"coldbootd_fleet_shards_queued", "Shards waiting for a worker lease.", "gauge", fs.Queued},
			gauge{"coldbootd_fleet_shards_leased", "Shards currently leased to workers.", "gauge", fs.Leased},
			gauge{"coldbootd_fleet_shards_done", "Shards completed in live campaigns.", "gauge", fs.Done},
			// The lease boards count these events on the daemon collector;
			// the pipeline counters below export the same values.
			gauge{"coldbootd_fleet_requeues_total", "Shard leases that expired back to the queue.", "counter", int(report.Counters["fleet.requeues"])},
			gauge{"coldbootd_fleet_steals_total", "Duplicate leases granted on straggling shards.", "counter", int(report.Counters["fleet.steals"])},
			gauge{"coldbootd_fleet_stragglers_total", "Completed shards that exceeded the straggler bound (2x the p99 of earlier completions).", "counter", int(report.Counters["fleet.stragglers"])},
			gauge{"coldbootd_fleet_lease_wait_p99_ns", "p99 of shard queue-to-lease wait; sustained growth means the fleet needs more workers.", "gauge", int(s.collector.Histogram("fleet.lease_wait_ns").Snapshot("").P99)},
			gauge{"coldbootd_fleet_backlog_per_worker", "Queued shards per alive worker (autoscaling signal; counts the whole backlog when no worker is alive).", "gauge", perWorkerBacklog(fs.Queued, fs.WorkersAlive)},
		)
	}
	gauges = append(gauges,
		gauge{"coldbootd_events_overwritten_total", "Telemetry journal entries lost to ring overwrites across all jobs (slow event-stream consumers).", "counter", s.journalOverwrites()},
	)
	for _, g := range gauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", g.name, g.help, g.name, g.typ, g.name, g.value)
	}
	report.WritePrometheus(w, "coldbootd_pipeline")
}

// pipelineReport is the daemon collector — which holds every terminal
// job's aggregates — plus the collectors of jobs still live. It is read
// under the lock a job's fold takes, so each job counts exactly once.
func (s *Server) pipelineReport() obs.Report {
	view := obs.NewCollector()
	s.jmu.Lock()
	defer s.jmu.Unlock()
	view.Fold(s.collector)
	for _, tel := range s.telemetry {
		if !tel.folded {
			view.Fold(tel.col)
		}
	}
	return view.Summary()
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

// perWorkerBacklog is the autoscaling ratio behind
// coldbootd_fleet_backlog_per_worker, rounded up so one queued shard with
// ten workers still reads as pressure 1, not 0.
func perWorkerBacklog(queued, alive int) int {
	if queued == 0 {
		return 0
	}
	if alive <= 0 {
		return queued
	}
	return (queued + alive - 1) / alive
}

// journalOverwrites sums ring overwrites across every job's event journal,
// purged jobs' included: how many telemetry events slow stream consumers
// have lost daemon-wide.
func (s *Server) journalOverwrites() int {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	n := s.overwritten
	for _, tel := range s.telemetry {
		n += tel.col.Journal().Overwritten()
	}
	return int(n)
}
