package service

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"coldboot/internal/jobs"
	"coldboot/internal/secret"
	"coldboot/internal/wal"
)

// compactEvery is the snapshot compaction threshold: once the WAL
// holds this many events past the last snapshot, the reduced ledger is
// written out and the log reset. Job lifecycle events are small, so this
// bounds boot-time replay without snapshotting on every hunt.
const compactEvery = 256

// walDirName is the durability subdirectory inside Config.DataDir.
const walDirName = "wal"

// walStore adapts internal/wal to the jobs pool's Journal interface and
// owns the compaction policy: it keeps a live ledger of the reduced job
// state, appends every event (write-ahead — the pool applies the mutation
// only after Record returns), and replaces the snapshot whenever the log
// grows past compactEvery events.
//
// The pool serializes Record calls under its scheduling lock; the store's
// own mutex exists only so the metrics handler can read the gauges while
// jobs are moving.
type walStore struct {
	mu          sync.Mutex
	log         *wal.Log
	ledger      *jobs.Ledger
	compactErrs int
	torn        bool
	tornBytes   int64
}

// walStoreStats is the store's /metrics gauge set.
type walStoreStats struct {
	// Records is how many events the log holds past the last snapshot.
	Records int
	// CompactErrs counts failed snapshot compactions (the log keeps
	// growing but no events are lost).
	CompactErrs int
	// TornBytes is how many trailing bytes boot-time replay discarded as a
	// torn write (0 for a clean log).
	TornBytes int64
}

// openStore opens (creating if needed) the WAL under dataDir and replays
// it into the reduced per-job entries the caller restores into the pool.
func openStore(dataDir string) (*walStore, []jobs.LedgerEntry, error) {
	wlog, rec, err := wal.Open(filepath.Join(dataDir, walDirName), wal.Options{})
	if err != nil {
		return nil, nil, err
	}
	ledger, err := jobs.Replay(rec.Snapshot, rec.Records)
	if err != nil {
		wlog.Close()
		return nil, nil, err
	}
	st := &walStore{
		log:       wlog,
		ledger:    ledger,
		torn:      rec.Torn,
		tornBytes: rec.TornBytes,
	}
	// Compact at boot when the log carried events: replay cost stays
	// bounded no matter how abruptly previous processes died.
	if wlog.AppendedSinceSnapshot() > 0 {
		st.mu.Lock()
		st.compactLocked()
		st.mu.Unlock()
	}
	return st, ledger.Entries(), nil
}

// Record implements jobs.Journal: the event is durable on disk before the
// pool applies the mutation it describes.
func (st *walStore) Record(e jobs.Event) error {
	raw, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("service: encoding journal event: %w", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.log.Append(raw); err != nil {
		return err
	}
	st.ledger.Apply(e)
	if st.log.AppendedSinceSnapshot() >= compactEvery {
		st.compactLocked()
	}
	return nil
}

// compactLocked writes the reduced ledger as the new snapshot and resets
// the log. Failure is counted, not fatal: the appended events remain on
// disk and replayable, the log has merely not shrunk.
func (st *walStore) compactLocked() {
	state, err := st.ledger.Marshal()
	if err == nil {
		err = st.log.Snapshot(state)
	}
	if err != nil {
		st.compactErrs++
	}
}

func (st *walStore) stats() walStoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := walStoreStats{
		Records:     st.log.AppendedSinceSnapshot(),
		CompactErrs: st.compactErrs,
	}
	if st.torn {
		s.TornBytes = st.tornBytes
	}
	return s
}

func (st *walStore) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.log.Close()
}

// encodePayload serializes a dump job for the journal's submit event.
// The payload carries no key material — only the spool path, acquisition
// metadata, and attack knobs — so it rides the WAL in the clear. Jobs
// submitted around the HTTP layer (embedders, tests) journal without a
// payload: they run normally but cannot be restored after a restart.
func encodePayload(payload any) ([]byte, error) {
	pl, ok := payload.(*dumpJob)
	if !ok {
		return nil, nil
	}
	return json.Marshal(pl)
}

// decodePayload rebuilds a dump job from its journaled form. Telemetry is
// NOT restored here: the caller attaches fresh telemetry to jobs that will
// run again.
func decodePayload(raw json.RawMessage) (*dumpJob, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("service: job was journaled without a payload")
	}
	pl := &dumpJob{}
	if err := json.Unmarshal(raw, pl); err != nil {
		return nil, fmt.Errorf("service: decoding journaled payload: %w", err)
	}
	return pl, nil
}

// encodeResult serializes a terminal result document for the journal.
// Key material is redacted to fingerprints unless the job was submitted
// with ?reveal=keys — the WAL on disk holds raw masters only when the
// operator explicitly opted the job into persistence.
func encodeResult(result any) ([]byte, error) {
	report, ok := result.(*ResultReport)
	if !ok {
		return nil, fmt.Errorf("service: cannot journal result of type %T", result)
	}
	return json.Marshal(report.redacted(report.reveal))
}

// decodeResult rebuilds a restored job's result document. Masters that
// were persisted (reveal-at-submit jobs) are re-wrapped in secret.Bytes;
// everything else keeps fingerprints only — the raw keys died with the
// previous process, by design.
func decodeResult(raw json.RawMessage) *ResultReport {
	if len(raw) == 0 {
		return nil
	}
	report := &ResultReport{}
	if err := json.Unmarshal(raw, report); err != nil {
		return nil
	}
	for i := range report.Keys {
		k := &report.Keys[i]
		if k.Master == "" {
			continue
		}
		if b, err := hex.DecodeString(k.Master); err == nil {
			k.master = secret.New(b)
			secret.Wipe(b)
			report.reveal = true
		}
		k.Master = ""
	}
	return report
}

// restore re-inserts replayed jobs into the fresh pool. Terminal jobs
// come back queryable (their redacted results survive the restart);
// interrupted jobs — queued, mid-run at the crash, or abandoned by a
// drain — go back on the queue to run again, provided their spooled dump
// still exists. A job whose spool vanished is settled as failed, and that
// settlement is journaled so the next boot does not retry a lost dump.
// Before any restored job runs, every other spool in the data dir is
// discarded (sweepSpools).
func (s *Server) restore(entries []jobs.LedgerEntry) error {
	restored := make([]jobs.Restored, 0, len(entries))
	owned := make(map[string]bool)
	for _, e := range entries {
		r := jobs.Restored{
			ID:       e.ID,
			Priority: e.Priority,
			State:    e.State,
			Attempts: e.Attempts,
			Error:    e.Error,
		}
		pl, plErr := decodePayload(e.Payload)
		if pl != nil {
			r.Payload = pl
		}
		if e.Interrupted {
			r.State, r.Error = jobs.StateQueued, ""
			switch {
			case plErr != nil:
				r.State = jobs.StateFailed
				r.Error = fmt.Sprintf("restore: %v", plErr)
			case spoolMissing(pl.Path):
				r.State = jobs.StateFailed
				r.Error = fmt.Sprintf("restore: spooled dump %s did not survive the restart", filepath.Base(pl.Path))
			default:
				// The job will run again: give it fresh telemetry so the
				// status, trace and stream endpoints follow the resumed run.
				pl.tel = s.newTelemetry()
				s.addTelemetry(e.ID, pl.tel)
				owned[filepath.Base(pl.Path)] = true
			}
			if r.State == jobs.StateFailed {
				s.store.Record(jobs.Event{Op: jobs.OpFailed, ID: e.ID, Attempts: e.Attempts, Error: r.Error})
			}
		} else if e.State.Terminal() {
			if report := decodeResult(e.Result); report != nil {
				r.Result = report
			}
		}
		restored = append(restored, r)
	}
	sweepSpools(s.cfg.DataDir, owned)
	return s.pool.Restore(restored)
}

// sweepSpools discards every upload spool in dataDir whose file name
// owned does not hold. A process that dies mid-upload, or between a
// job's terminal journal record and its spool wipe, leaves the victim's
// memory on disk with no job left to discard it; the next boot's sweep
// is that spool's last owner. Only a DataDir is swept: the OS temp dir a
// server without one spools to is shared with other processes.
func sweepSpools(dataDir string, owned map[string]bool) {
	spools, _ := filepath.Glob(filepath.Join(dataDir, spoolPattern))
	for _, path := range spools {
		if !owned[filepath.Base(path)] {
			discardSpool(path)
		}
	}
}

// spoolMissing reports whether a journaled spool path no longer resolves
// to a readable file.
func spoolMissing(path string) bool {
	if path == "" {
		return true
	}
	_, err := os.Stat(path)
	return err != nil
}
