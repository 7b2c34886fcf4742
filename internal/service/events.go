package service

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// eventBatchMax bounds how many journal events one write drains: large
// enough to amortize the flush, small enough to keep the stream live.
const eventBatchMax = 256

// streamLine is a control record on the event stream. Data lines are raw
// obs.Event JSON (type span_start/span_end/span_attr/count/progress/
// observe); control lines reuse the "type" key with:
//
//	gap       — the reader fell behind the ring buffer; "skipped" events
//	            were overwritten before they could be delivered
//	heartbeat — keepalive after an idle Heartbeat interval
//	end       — the job reached a terminal state and every buffered event
//	            was delivered; the server closes the connection after this
//
// Every control line carries the reader's cursor, so a dropped connection
// resumes with ?cursor=N and sees each surviving event exactly once.
type streamLine struct {
	Type    string `json:"type"`
	Cursor  uint64 `json:"cursor"`
	Skipped uint64 `json:"skipped,omitempty"`
	State   string `json:"state,omitempty"`
}

// handleEvents streams a job's telemetry journal as NDJSON: one JSON
// object per line, flushed as produced. The stream starts at ?cursor=N
// (exclusive, default 0 = from the oldest buffered event) and closes
// itself with an "end" line once the job finishes and the tail has been
// delivered.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.pool.Get(id); !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	tel := s.telemetryOf(id)
	if tel == nil {
		// Jobs submitted through Pool directly (tests, embedders) and jobs
		// restored terminal from the WAL have no journal.
		httpError(w, http.StatusNotFound, "job %s has no event journal", id)
		return
	}
	jn := tel.col.Journal()
	cursor := uint64(0)
	if v := r.URL.Query().Get("cursor"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad cursor %q", v)
			return
		}
		cursor = n
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	heartbeat := time.NewTicker(s.cfg.Heartbeat)
	defer heartbeat.Stop()
	for {
		// Fetch the wake channel BEFORE draining: an append between
		// ReadSince and Updated would otherwise go unnoticed until the
		// event after it.
		wake := jn.Updated()
		events, missed := jn.ReadSince(cursor, eventBatchMax)
		if missed > 0 {
			cursor += missed
			if err := enc.Encode(streamLine{Type: "gap", Cursor: cursor, Skipped: missed}); err != nil {
				return
			}
		}
		for _, e := range events {
			cursor = e.Seq
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		if len(events) > 0 {
			flush()
			continue // drain the ring before parking
		}
		if jn.Closed() {
			end := streamLine{Type: "end", Cursor: cursor}
			if snap, ok := s.pool.Get(id); ok {
				end.State = string(snap.State)
			}
			enc.Encode(end)
			flush()
			return
		}
		flush()
		select {
		case <-wake:
		case <-heartbeat.C:
			if err := enc.Encode(streamLine{Type: "heartbeat", Cursor: cursor}); err != nil {
				return
			}
			flush()
		case <-r.Context().Done():
			return
		}
	}
}
