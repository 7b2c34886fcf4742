package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	//lint:ignore noweakrand seeded think times between benchmark jobs, not keystream material
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// jobOutcome is one closed-loop job as the client saw it.
type jobOutcome struct {
	fixture int
	start   time.Time
	// latency runs from submission start to receiving the result document.
	latency time.Duration
	err     error // nil when the job passed the output check
	// reported holds the masters (hex) the result document revealed.
	reported []string
	traced   bool
}

// resultDoc is the part of GET /v1/jobs/{id}/result the check reads.
type resultDoc struct {
	Keys []struct {
		Format      string `json:"format"`
		TableStart  int    `json:"table_start"`
		Fingerprint string `json:"fingerprint"`
		Master      string `json:"master"`
	} `json:"keys"`
}

// loop drives the closed loop: each of clients goroutines submits its next
// job only after the previous one finished (and, where the workload sets
// one, a seeded random think time), cycling through the fixtures
// round-robin, until the window closes; jobs in flight then run to
// completion. It returns when every client goroutine has stopped.
func loop(ctx context.Context, h *harness, wl benchWorkload, fxs []*fixture, clients int, window time.Duration, seed int64, tr *tracing, hook func(jobOutcome) error) ([]jobOutcome, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	deadline := time.Now().Add(window)
	var (
		mu       sync.Mutex
		outcomes []jobOutcome
		firstErr error
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			think := rand.New(rand.NewSource(seed*31 + int64(c)))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				if wl.thinkMax > 0 && !sleep(ctx, time.Duration(think.Int63n(int64(wl.thinkMax)))) {
					return
				}
				fx := fxs[int(next.Add(1)-1)%len(fxs)]
				out := runJob(ctx, h, wl, fx, tr)
				if ctx.Err() != nil && out.err != nil {
					return // aborted with the run, not a job failure
				}
				mu.Lock()
				outcomes = append(outcomes, out)
				var err error
				if hook != nil {
					err = hook(out)
				}
				if err != nil && firstErr == nil {
					firstErr = err
					cancel()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return outcomes, firstErr
}

// sleep waits for d or until ctx is done, reporting whether d elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// runJob pushes one fixture through the service and checks the result.
func runJob(runCtx context.Context, h *harness, wl benchWorkload, fx *fixture, tr *tracing) jobOutcome {
	out := jobOutcome{fixture: fx.index, start: time.Now(), traced: tr.on()}
	jobSpan := tr.newSpan()
	ctx, cancel := context.WithTimeout(withSpan(runCtx, jobSpan), jobTimeout)
	defer cancel()
	id, err := submit(ctx, h, wl, fx)
	if err == nil {
		out.reported, err = awaitResult(ctx, h, id, fx)
		out.latency = time.Since(out.start)
		if err == nil && wl.extraReads {
			err = extraReads(ctx, h, id)
		}
	}
	if id != "" && runCtx.Err() == nil {
		// Purge the finished job (or cancel a failed one), as an operator
		// erasing recovered key material would; a job that timed out still
		// gets its DELETE. A cleanup error only counts when the job had
		// otherwise passed.
		delCtx, delCancel := context.WithTimeout(withSpan(runCtx, jobSpan), callTimeout)
		if derr := del(delCtx, h, id); err == nil {
			err = derr
		}
		delCancel()
	}
	out.err = err
	tr.span(jobSpan, "job", out.start, time.Since(out.start), "fixture", strconv.Itoa(fx.index))
	return out
}

func submit(ctx context.Context, h *harness, wl benchWorkload, fx *fixture) (string, error) {
	url := h.base + "/v1/jobs?repair=" + strconv.Itoa(wl.repair)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(fx.container))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	var doc struct {
		ID string `json:"id"`
	}
	if err := do(h.api, req, http.StatusCreated, &doc); err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	return doc.ID, nil
}

// awaitResult follows the job's NDJSON event stream to its end line,
// then fetches the result with key material and checks it against the
// fixture's library reference.
func awaitResult(ctx context.Context, h *harness, id string, fx *fixture) ([]string, error) {
	state, err := followEvents(ctx, h, id)
	if err != nil {
		return nil, err
	}
	if state != "done" {
		return nil, fmt.Errorf("job %s finished %s, want done", id, state)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/v1/jobs/"+id+"/result?reveal=keys", nil)
	if err != nil {
		return nil, err
	}
	var doc resultDoc
	if err := do(h.api, req, http.StatusOK, &doc); err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	got := make([]string, 0, len(doc.Keys))
	masters := make([]string, 0, len(doc.Keys))
	for _, k := range doc.Keys {
		got = append(got, keyID(k.Format, k.Fingerprint, k.TableStart))
		masters = append(masters, k.Master)
	}
	sort.Strings(got)
	if !slices.Equal(got, fx.reference) {
		return masters, fmt.Errorf("job %s on fixture %d: key set %v differs from the library reference %v", id, fx.index, got, fx.reference)
	}
	return masters, nil
}

var endLine = []byte(`{"type":"end"`)

// followEvents reads the job's event stream until its end line and
// returns the terminal state it reports.
func followEvents(ctx context.Context, h *harness, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := h.stream.Do(req)
	if err != nil {
		return "", fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, endLine) {
			continue
		}
		var end struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(line, &end); err != nil {
			return "", fmt.Errorf("events: bad end line: %w", err)
		}
		return end.State, nil
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("events: %w", err)
	}
	return "", fmt.Errorf("events: stream closed without an end line")
}

// extraReads fetches the job's status document, its merged trace and the
// metrics page, as an operator watching the fleet would.
func extraReads(ctx context.Context, h *harness, id string) error {
	for _, path := range []string{"/v1/jobs/" + id, "/v1/jobs/" + id + "/trace", "/metrics"} {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+path, nil)
		if err != nil {
			return err
		}
		if err := do(h.api, req, http.StatusOK, nil); err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
	}
	return nil
}

// del purges a finished job (200) or cancels a live one (202).
func del(ctx context.Context, h *harness, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, h.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := h.api.Do(req)
	if err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("delete: HTTP %d", resp.StatusCode)
	}
	return nil
}

// do sends req, requires status want, and decodes the JSON body into out
// (or discards it when out is nil).
func do(c *http.Client, req *http.Request, want int, out any) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return err
		}
	}
	// Read to EOF so the connection is reused and the timing layer sees
	// the whole exchange.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}
