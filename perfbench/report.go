package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"coldboot/internal/obs"
)

// metric is one reported value.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is one run's outcome and its metrics.
type report struct {
	wl        benchWorkload
	o         options
	clients   int
	setups    []float64
	fixtures  []*fixture
	outcomes  []jobOutcome
	loopWall  time.Duration
	traceFile string

	attempted, failed int
	metrics           []metric
	// samples records the sample count behind each percentile.
	samples map[string]any
	errs    []string
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// tally counts attempts and failures and keeps the first few failures.
func (r *report) tally() {
	r.samples = map[string]any{}
	for _, out := range r.outcomes {
		r.attempted++
		if out.err != nil {
			r.failed++
			if len(r.errs) < 5 {
				r.errs = append(r.errs, out.err.Error())
			}
		}
	}
}

// endToEnd computes the user-visible metrics of an untraced run.
func (r *report) endToEnd() {
	r.tally()
	var (
		okBytes          float64
		lat              []float64
		plantedN, recall int
		reported, truePo int
	)
	for _, out := range r.outcomes {
		if out.err != nil {
			continue
		}
		fx := r.fixtures[out.fixture]
		okBytes += float64(len(fx.image))
		lat = append(lat, out.latency.Seconds())
		tp, rc := scoreMasters(fx, out.reported)
		plantedN += len(fx.planted)
		recall += rc
		reported += len(out.reported)
		truePo += tp
	}
	p50 := median(lat)
	tl, pct, ok := tail(lat)
	if !ok && len(lat) > 0 {
		// Too few samples for any percentile to have ten beyond it: report
		// the slowest job and say so in the samples record.
		tl, pct = slices.Max(lat), 100
	}
	r.samples["job_latency_p50_s"] = len(lat)
	r.samples["job_latency_tail_s"] = map[string]any{"n": len(lat), "percentile": pct, "ten_beyond": ok}
	r.add("throughput_mb_s", "MB/s", ratio(okBytes/1e6, r.loopWall.Seconds()))
	r.add("job_latency_p50_s", "s", p50)
	r.add("job_latency_tail_s", "s", tl)
	r.add("masters_recall", "ratio", ratio(float64(recall), float64(plantedN)))
	r.add("masters_precision", "ratio", ratio(float64(truePo), float64(reported)))
	r.add("completed_frac", "ratio", ratio(float64(r.attempted-r.failed), float64(r.attempted)))
	r.add("setup_s", "s", median(r.setups))
	r.add("peak_rss_mib", "MiB", peakRSSMiB())
}

// perLayer computes the traced run's per-layer metrics from the timed
// library pipeline, the timing transports and the service's existing
// histograms.
func (r *report) perLayer(layers []layerTimes, tr *tracing, h *harness) {
	r.tally()
	var (
		mine, scan, repair, finalize, verify, read, wall []float64
		sumBytes, sumMine, sumScan, sumSelf, sumWall     float64
		passed, scanned, mineKeys, keys                  float64
		pairs                                            float64
		verifyP50                                        []float64
		counters                                         = map[string]float64{}
	)
	for _, lt := range layers {
		mine = append(mine, lt.mine.Seconds())
		scan = append(scan, lt.scan.Seconds())
		repair = append(repair, lt.repair.Seconds())
		finalize = append(finalize, lt.finalize.Seconds())
		verify = append(verify, lt.verify.Seconds())
		read = append(read, lt.read.Seconds())
		wall = append(wall, lt.wall.Seconds())
		sumBytes += float64(lt.imageBytes)
		sumMine += lt.mine.Seconds()
		sumScan += lt.scan.Seconds()
		sumSelf += lt.self().Seconds()
		sumWall += lt.wall.Seconds()
		passed += float64(lt.minePassed)
		scanned += float64(lt.mineScanned)
		mineKeys += float64(lt.mineKeys)
		keys += float64(lt.keys)
		pairs += float64(lt.pairs)
		verifyP50 = append(verifyP50, float64(lt.verifyP50Ns))
		for k, v := range lt.counters {
			counters[k] += float64(v)
		}
	}
	n := float64(len(layers))
	r.samples["layers"] = len(layers)

	r.add("core.mine_s", "s", median(mine))
	r.add("core.mine_mb_s", "MB/s", ratio(sumBytes/1e6, sumMine))
	r.add("mine.pass_frac", "ratio", ratio(passed, scanned))
	r.add("mine.keys", "count", ratio(mineKeys, n))
	r.add("core.scan_s", "s", median(scan))
	r.add("core.scan_mb_s", "MB/s", ratio(sumBytes/1e6, sumScan))
	r.add("hunt.pairs_tested", "count", ratio(pairs, n))
	r.add("hunt.candidates", "count", ratio(counters["hunt.candidates"], n))
	r.add("hunt.yield", "ratio", ratio(keys, counters["hunt.candidates"]))
	r.add("hunt.verify_p50_ns", "ns", median(verifyP50))
	for _, f := range []string{"aesxts", "luks2", "chacha20"} {
		r.add("format."+f+".candidates", "count", ratio(counters["format."+f+".candidates"], n))
	}
	r.add("core.repair_s", "s", median(repair))
	r.add("core.finalize_s", "s", median(finalize))
	r.add("dumpfile.verify_s", "s", median(verify))
	r.add("dumpfile.read_s", "s", median(read))
	r.add("pipeline.wall_s", "s", median(wall))
	r.add("pipeline.self_frac", "ratio", ratio(sumSelf, sumWall))

	// Outside-in service timings: per-call p50 of each endpoint in the
	// traced half.
	p50 := func(pattern string) float64 {
		durs, _ := tr.stats.snapshot(pattern)
		r.samples[pattern] = len(durs)
		return median(seconds(durs))
	}
	r.add("service.submit_s", "s", p50("POST /v1/jobs"))
	r.add("service.result_s", "s", p50("GET /v1/jobs/{id}/result"))
	r.add("service.read_s", "s", p50("GET /v1/jobs/{id}")+p50("GET /v1/jobs/{id}/trace")+p50("GET /metrics"))
	r.add("service.delete_s", "s", p50("DELETE /v1/jobs/{id}"))

	// Service overhead: a fixture's traced job latency minus its library
	// pipeline wall time.
	var overhead, tracedLat, untracedLat []float64
	for i, lt := range layers {
		var lat []float64
		for _, out := range r.outcomes {
			if out.err == nil && out.traced && out.fixture == i {
				lat = append(lat, out.latency.Seconds())
			}
		}
		if len(lat) > 0 {
			overhead = append(overhead, median(lat)-lt.wall.Seconds())
		}
	}
	for _, out := range r.outcomes {
		if out.err != nil {
			continue
		}
		if out.traced {
			tracedLat = append(tracedLat, out.latency.Seconds())
		} else {
			untracedLat = append(untracedLat, out.latency.Seconds())
		}
	}
	r.samples["traced_jobs"] = len(tracedLat)
	r.samples["untraced_jobs"] = len(untracedLat)
	r.add("service.overhead_s", "s", median(overhead))

	col := h.svc.Collector()
	r.add("jobs.queue_wait_s", "s", histMean(col, "jobs.queue_wait_ns", r.samples))

	r.add("fleet.lease_call_s", "s", p50("POST /v1/shards/lease"))
	r.add("fleet.plan_s", "s", p50("GET /v1/shards/plan"))
	r.add("fleet.data_s", "s", p50("GET /v1/shards/data"))
	_, dataBytes := tr.stats.snapshot("GET /v1/shards/data")
	r.add("fleet.data_mb", "MB", ratio(float64(dataBytes)/1e6, float64(len(tracedLat))))
	r.add("fleet.heartbeat_s", "s", p50("POST /v1/shards/heartbeat"))
	r.add("fleet.complete_s", "s", p50("POST /v1/shards/complete"))
	r.add("fleet.telemetry_s", "s", p50("POST /v1/telemetry"))
	r.add("fleet.lease_wait_s", "s", histMean(col, "fleet.lease_wait_ns", r.samples))
	r.add("fleet.shard_s", "s", histMean(col, "fleet.shard_ns", r.samples))
	byEndpoint, status := tr.stats.statusCounts()
	r.samples["status_by_endpoint"] = byEndpoint
	leases, _ := tr.stats.snapshot("POST /v1/shards/lease")
	granted := tr.stats.endpointStatus("POST /v1/shards/lease", 200)
	r.add("fleet.lease_yield", "ratio", ratio(float64(granted), float64(len(leases))))

	var c2, c4, c5 int
	for code, n := range status {
		switch {
		case code >= 200 && code < 300:
			c2 += n
		case code >= 400 && code < 500:
			c4 += n
		case code >= 500:
			c5 += n
		}
	}
	r.add("http.responses_2xx", "count", float64(c2))
	r.add("http.responses_4xx", "count", float64(c4))
	r.add("http.responses_410", "count", float64(status[410]))
	r.add("http.responses_5xx", "count", float64(c5))
	r.add("http.responses_503", "count", float64(status[503]))
	r.add("trace.overhead_s", "s", median(tracedLat)-median(untracedLat))
}

// histMean reads an existing service histogram's mean in seconds.
func histMean(col *obs.Collector, name string, samples map[string]any) float64 {
	h := col.Histogram(name)
	if h == nil {
		samples[name] = 0
		return 0
	}
	s := h.Snapshot(name)
	samples[name] = s.Count
	return ratio(float64(s.Sum)/1e9, float64(s.Count))
}

// result is the run's last output line.
func (r *report) result() map[string]any {
	m := make(map[string]any, len(r.metrics))
	for _, x := range r.metrics {
		m[x.name] = map[string]any{"value": x.value, "unit": x.unit}
	}
	return map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   m,
	}
}

// stamp identifies the run: what was measured, on what, from which code.
func (r *report) stamp() map[string]any {
	imageBytes, containerBytes := 0, 0
	if len(r.fixtures) > 0 {
		imageBytes, containerBytes = len(r.fixtures[0].image), len(r.fixtures[0].container)
	}
	flips := make([]float64, len(r.fixtures))
	for i, fx := range r.fixtures {
		flips[i] = fx.flipFrac
	}
	st := map[string]any{
		"workload":        r.wl.name,
		"seed":            r.o.seed,
		"seconds":         r.o.seconds,
		"trace":           r.o.trace,
		"git_revision":    gitRevision(),
		"source_tree":     treeHash(),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"image_bytes":     imageBytes,
		"container_bytes": containerBytes,
		"fixtures":        len(r.fixtures),
		"flip_frac":       flips,
		"repair":          r.wl.repair,
		"role":            r.wl.role,
		"clients":         r.clients,
		"fleet_workers":   r.wl.fleetWorkers,
		"jobs_attempted":  r.attempted,
		"jobs_failed":     r.failed,
		"setup_rounds_s":  r.setups,
		"samples":         r.samples,
	}
	if r.traceFile != "" {
		st["trace_file"] = r.traceFile
	}
	if len(r.errs) > 0 {
		st["failures"] = r.errs
	}
	return st
}

// writeTable prints every metric by name with its unit.
func (r *report) writeTable(w io.Writer) {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if r.o.trace {
		return
	}
	failed := ratio(float64(r.failed), float64(r.attempted))
	fmt.Fprintf(w, "%-32s %14.6g %s\n", "failed_frac", failed, "ratio")
	if tl, ok := r.samples["job_latency_tail_s"].(map[string]any); ok {
		fmt.Fprintf(w, "job_latency_tail_s is p%.1f of %d jobs\n", tl["percentile"], tl["n"])
	}
}

// gitRevision reads the checkout's HEAD commit from .git without running
// git; a checkout that is not a git work tree reports "unknown".
func gitRevision() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(l, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// treeHash fingerprints the Go sources under the working directory, so a
// run from a checkout without git history still names the code it built.
func treeHash() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write([]byte{0})
		h.Write(b)
		h.Write([]byte{0})
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)[:8])
}
