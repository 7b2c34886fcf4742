package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"coldboot/internal/core"
	"coldboot/internal/obs"
)

// Worker is the client side of the fleet protocol: it asks the
// coordinator for shard leases, reconstructs the campaign plan from its
// wire projection, scans leased shards with the shared per-shard
// pipeline, and posts results back. A lease call is a long poll that the
// coordinator holds until it has work, so the worker asks again at once
// when one comes back empty; only transport errors and refusals back off
// (leaseRetry). Run until the context is cancelled; the coordinator's
// lease expiry covers a shard the worker drops either way.
type Worker struct {
	// Base is the coordinator's URL prefix, e.g. "http://host:7133".
	Base string
	// Name identifies this worker in leases and /metrics: required, 1-64
	// bytes of [A-Za-z0-9._-] (the coordinator refuses any other name).
	Name string
	// Client is the HTTP client (nil means http.DefaultClient). Its
	// timeout, if any, must exceed the coordinator's lease hold, a quarter
	// of its lease TTL.
	Client *http.Client
	// Tracer observes the worker's scans. Nil means no tracing.
	Tracer obs.Tracer

	plans map[string]*core.CampaignPlan // campaign ID -> rebuilt plan
	clock clockSync                     // coordinator clock offset estimate
}

// clockSync keeps the worker's best estimate of the coordinator's obs.Now
// clock relative to its own. Every round-trip that returns the
// coordinator's clock yields an NTP-style sample offset = serverNow -
// (t0+t1)/2; the sample with the smallest round-trip time wins, since
// network asymmetry bounds its error by RTT/2.
type clockSync struct {
	mu      sync.Mutex
	sampled bool
	bestRTT int64
	offset  int64
}

// sample folds one round-trip observation in. serverNow == 0 (old
// coordinator, no clock in the response) is ignored.
func (cs *clockSync) sample(t0, t1, serverNow int64) {
	if serverNow == 0 || t1 < t0 {
		return
	}
	rtt := t1 - t0
	cs.mu.Lock()
	if !cs.sampled || rtt < cs.bestRTT {
		cs.sampled = true
		cs.bestRTT = rtt
		cs.offset = serverNow - (t0+t1)/2
	}
	cs.mu.Unlock()
}

// Offset returns the current (coordinator - worker) clock estimate in
// nanoseconds; zero before any sample.
func (cs *clockSync) Offset() int64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.offset
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

// leaseRetry is how long a worker waits before asking again after a lease
// call failed (coordinator unreachable, shutting down, or erroring).
const leaseRetry = 250 * time.Millisecond

// Run leases and scans shards until ctx is cancelled. It returns
// ctx.Err() on cancellation; it never gives up on transport errors.
func (w *Worker) Run(ctx context.Context) error {
	if !validWorkerName(w.Name) {
		return fmt.Errorf("fleet: worker name %q is not 1-%d bytes of [A-Za-z0-9._-]", w.Name, maxWorkerName)
	}
	tracer := obs.OrNop(w.Tracer)
	w.plans = make(map[string]*core.CampaignPlan)
	defer func() {
		for _, p := range w.plans {
			p.Close()
		}
	}()
	retry := time.NewTimer(0)
	if !retry.Stop() {
		<-retry.C
	}
	defer retry.Stop()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, ok, err := w.lease(ctx)
		if err != nil {
			retry.Reset(leaseRetry)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-retry.C:
			}
			continue
		}
		if !ok {
			// The coordinator held the call for its full hold and had no
			// work: ask again at once.
			continue
		}
		if err := w.scanLease(ctx, lease, tracer); err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
	}
}

// scanLease runs one leased shard end to end: plan, data, scan,
// complete — heartbeating throughout so the lease stays ours. The scan
// records into a lease-scoped Collector (alongside the worker's own
// tracer) so its span tree, counters, and histogram buckets ship back with
// the completion and graft into the coordinator's merged timeline.
func (w *Worker) scanLease(ctx context.Context, lease leaseResponse, tracer obs.Tracer) error {
	plan, err := w.planFor(ctx, lease.Campaign, tracer)
	if err != nil {
		return err
	}
	sub, err := w.shardData(ctx, lease)
	if err != nil {
		return err
	}
	col := obs.NewCollector()

	// Heartbeat until the scan finishes; a dead lease (requeued from
	// under us, or a stolen duplicate that lost) cancels the scan — the
	// work's result would be dropped anyway.
	scanCtx, cancel := context.WithCancel(ctx)
	var hb sync.WaitGroup
	hb.Add(1)
	interval := time.Duration(lease.TTLNs / 3)
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		defer hb.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-scanCtx.Done():
				return
			case <-t.C:
				if !w.heartbeat(scanCtx, lease) {
					cancel()
					return
				}
			}
		}
	}()

	sr, scanErr := plan.ScanShardBytesTraced(scanCtx, sub, lease.Shard, obs.Multi(col, tracer))
	cancel()
	hb.Wait()
	if scanErr != nil {
		// Partial shard results never leave the worker: the merge
		// contract needs whole shards, and the lease will expire back to
		// the queue for a healthy worker to redo.
		return scanErr
	}
	return w.complete(ctx, lease, sr, col)
}

// planFor fetches and rebuilds (once per campaign) the wire plan.
func (w *Worker) planFor(ctx context.Context, campaign string, tracer obs.Tracer) (*core.CampaignPlan, error) {
	if p, ok := w.plans[campaign]; ok {
		return p, nil
	}
	frame, err := w.get(ctx, "/v1/shards/plan?campaign="+campaign, maxPlanBytes)
	if err != nil {
		return nil, err
	}
	wire, err := core.DecodeWirePlan(frame)
	if err != nil {
		return nil, err
	}
	p, err := core.PlanFromWire(wire, tracer)
	if err != nil {
		return nil, err
	}
	// Retire plans from finished campaigns: a worker outlives many
	// campaigns, and each plan pins its campaign's mine pool and key
	// directory.
	for id, old := range w.plans {
		if id != campaign {
			old.Close()
			delete(w.plans, id)
		}
	}
	w.plans[campaign] = p
	return p, nil
}

// lease makes one (long-poll) lease call: ok is false when the
// coordinator had no work for the whole hold (204); any status but 200 and
// 204 is an error.
func (w *Worker) lease(ctx context.Context) (leaseResponse, bool, error) {
	var out leaseResponse
	t0 := obs.Now()
	status, err := w.postJSON(ctx, "/v1/shards/lease", leaseRequest{Worker: w.Name}, &out)
	switch {
	case err != nil:
		return out, false, err
	case status == http.StatusNoContent:
		return out, false, nil
	case status != http.StatusOK:
		return out, false, fmt.Errorf("fleet: lease: HTTP %d", status)
	}
	w.clock.sample(t0+out.HeldNs, obs.Now(), out.NowNs)
	return out, true, nil
}

func (w *Worker) heartbeat(ctx context.Context, lease leaseResponse) bool {
	var out nowResponse
	t0 := obs.Now()
	status, err := w.postJSON(ctx, "/v1/shards/heartbeat", leaseRef{Campaign: lease.Campaign, Lease: lease.Lease}, &out)
	if err != nil {
		// Unreachable coordinator is not a dead lease: keep scanning and
		// let the next beat (or lease expiry) decide.
		return true
	}
	if status == http.StatusOK {
		w.clock.sample(t0, obs.Now(), out.NowNs)
	}
	return status == http.StatusOK
}

func (w *Worker) shardData(ctx context.Context, lease leaseResponse) ([]byte, error) {
	want := lease.Shard.Blocks * core.BlockBytes
	buf, err := w.get(ctx, "/v1/shards/data?campaign="+lease.Campaign+
		"&lease="+lease.Lease+
		"&first_block="+strconv.Itoa(lease.Shard.FirstBlock)+
		"&blocks="+strconv.Itoa(lease.Shard.Blocks), want)
	if err != nil {
		return nil, err
	}
	if len(buf) != want {
		return nil, fmt.Errorf("fleet: shard data: got %d bytes, want %d", len(buf), want)
	}
	return buf, nil
}

// complete posts the shard's findings. The body carries the recovered
// masters raw: the coordinator needs the true bytes to merge and tag, and
// this transport is the fleet's sanctioned key egress (results at rest
// are fingerprinted by the service layer).
func (w *Worker) complete(ctx context.Context, lease leaseResponse, sr core.ShardResult, col *obs.Collector) error {
	_, err := w.postJSON(ctx, "/v1/shards/complete", completeRequest{
		Campaign:      lease.Campaign,
		Lease:         lease.Lease,
		Shard:         sr.Shard,
		Keys:          sr.Keys,
		Volumes:       sr.Volumes,
		Pairs:         sr.Pairs,
		ClockOffsetNs: w.clock.Offset(),
		Telemetry:     col.Telemetry(),
	}, nil)
	return err
}

func (w *Worker) postJSON(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// maxPlanBytes bounds a wire plan frame: a campaign over a
// multi-gigabyte image fits, and a larger body is refused, not cut short.
const maxPlanBytes = 64 << 20

// get fetches path's body, which must be 200 OK and at most limit bytes.
func (w *Worker) get(ctx context.Context, path string, limit int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.Base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: GET %s: %s", path, resp.Status)
	}
	if resp.ContentLength > int64(limit) {
		return nil, fmt.Errorf("fleet: GET %s: %d-byte body over its %d-byte bound", path, resp.ContentLength, limit)
	}
	buf := bytes.NewBuffer(make([]byte, 0, max(resp.ContentLength, 0)+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, int64(limit)+1)); err != nil {
		return nil, err
	}
	if buf.Len() > limit {
		return nil, fmt.Errorf("fleet: GET %s: body over its %d-byte bound", path, limit)
	}
	return buf.Bytes(), nil
}
