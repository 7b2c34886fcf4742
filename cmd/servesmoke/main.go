// Command servesmoke is the end-to-end smoke driver for coldbootd. It
// builds the daemon once and runs the named scenarios against the real
// binary over real sockets: the layer the in-process httptest suites
// cannot reach (flag parsing, signal handling, listener setup, process
// exit codes, and processes dying without any chance to flush or drain).
//
//	go run ./cmd/servesmoke serve                                     # make serve-smoke
//	go run ./cmd/servesmoke kill-standalone kill-coordinator kill-worker  # make crash-smoke
//
// Scenarios:
//
//   - serve: boot a standalone daemon, submit a multi-format fixture dump
//     (a planted VeraCrypt AES-256 master, a LUKS2 VMK schedule pair with
//     its volume header, and a raw ChaCha20 state), tail the job's NDJSON
//     event stream (including a cursor resume), require every planted key
//     back with the right format tag and the per-format counts on the
//     status document and /metrics, DELETE a second job mid-run and
//     require partial per-format results, then require a clean SIGTERM
//     drain (exit 0).
//   - kill-standalone: submit two jobs (one mid-hunt, one queued behind
//     it), stream half of a third container through a body that never
//     ends, and SIGKILL the daemon once that upload's spool holds bytes.
//     Restart it on the same data dir and require the half-uploaded spool
//     gone, every spool left owned by a restored job, and the write-ahead
//     log replay to finish both jobs with their planted masters: kill -9
//     must lose no submitted job and leave no victim memory behind.
//   - kill-coordinator: the same against a coordinator with two worker
//     processes. The coordinator restarts on the same data dir and
//     address; the workers are never restarted and must re-attach.
//   - kill-worker: SIGKILL the only worker of a coordinator with a short
//     lease TTL while it holds a lease, start a second worker, and require
//     the stranded shard back through lease expiry or a straggler steal,
//     and the job's keys to equal those of a standalone campaign.
//
// Every scenario saves a checked job's merged Chrome-trace timeline as
// <scenario>-trace.json in the working directory as soon as the job is
// done, so a failure in a later step still leaves it for CI to attach.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	//lint:ignore noweakrand seeded deterministic smoke fixture, not keystream material
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"coldboot/internal/aes"
	"coldboot/internal/chacha"
	"coldboot/internal/core"
	"coldboot/internal/dumpfile"
	_ "coldboot/internal/format/all" // the standalone reference hunts every format, as the daemon does
	"coldboot/internal/format/luks2"
	"coldboot/internal/scramble"
	"coldboot/internal/workload"
)

// Planted-target layout. The VeraCrypt schedule and ChaCha state sit in
// the first few 2048-block shards, so a job cancelled or killed after
// 4096 blocks of progress has already recovered them or still has them
// ahead, whichever the scenario needs.
const (
	blockBytes  = 64
	veraStart   = 100*blockBytes + 32
	chachaStart = 2100*blockBytes + 16
	luksStart   = 9000*blockBytes + 16
	luksTweak   = luksStart + 240
	headerStart = 20000 * blockBytes
	volumeUUID  = "5c01db00-dead-beef-cafe-123456789abc"
)

var scenarios = map[string]func(*rig) error{
	"serve":            serve,
	"kill-standalone":  killStandalone,
	"kill-coordinator": killCoordinator,
	"kill-worker":      killWorker,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("servesmoke: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(names []string) error {
	if len(names) == 0 {
		return fmt.Errorf("usage: servesmoke scenario... (serve, kill-standalone, kill-coordinator, kill-worker)")
	}
	for _, name := range names {
		if scenarios[name] == nil {
			return fmt.Errorf("unknown scenario %q (want serve, kill-standalone, kill-coordinator or kill-worker)", name)
		}
	}
	workDir, err := os.MkdirTemp("", "servesmoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	bin := filepath.Join(workDir, "coldbootd")
	log.Printf("building coldbootd...")
	build := exec.Command("go", "build", "-o", bin, "./cmd/coldbootd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building coldbootd: %w", err)
	}
	for _, name := range names {
		log.SetPrefix(name + ": ")
		r := &rig{bin: bin, dir: filepath.Join(workDir, name), trace: name + "-trace.json"}
		if err := os.Mkdir(r.dir, 0o700); err != nil {
			return err
		}
		err := scenarios[name](r)
		r.close()
		if err != nil {
			return err
		}
		fmt.Printf("%s: PASS\n", name)
	}
	return nil
}

// serve drives the whole API loop on one standalone daemon.
func serve(r *rig) error {
	fx := buildFixture(77, 2<<20)
	log.Printf("fixture: %d-byte container, planted vera %x.../luks pair/chacha %x...",
		len(fx.container), fx.vera[:4], fx.chachaKey[:4])
	d, err := r.start("standalone")
	if err != nil {
		return err
	}
	log.Printf("daemon up at %s", d.base())
	if err := multiFormatJob(d.base(), fx, r.trace); err != nil {
		return err
	}
	if err := cancelJob(d); err != nil {
		return err
	}
	return r.drainAll()
}

// killStandalone SIGKILLs a standalone daemon mid-hunt and requires the
// restarted one to finish every submitted job from the journal.
func killStandalone(r *rig) error {
	d, err := r.start("standalone")
	if err != nil {
		return err
	}
	jobs, err := submitMidHunt(d, 510)
	if err != nil {
		return err
	}
	jobSpools, err := killMidUpload(d, r.dir, 512)
	if err != nil {
		return err
	}
	d2, err := r.start("standalone")
	if err != nil {
		return err
	}
	log.Printf("daemon #2 up at %s (same data dir)", d2.base())
	left, err := spools(r.dir)
	if err != nil {
		return err
	}
	for _, path := range left {
		if !slices.Contains(jobSpools, path) {
			return fmt.Errorf("spool %s survived the restart with no restored job to own it", filepath.Base(path))
		}
	}
	log.Printf("boot sweep left %d spool(s), all owned by restored jobs", len(left))
	if err := finishAll(d2.base(), jobs, r.trace); err != nil {
		return err
	}
	if err := requireMetrics(d2.base(), "coldbootd_wal_records", "coldbootd_jobs_abandoned_total", "coldbootd_jobs_done_total 2"); err != nil {
		return err
	}
	return r.drainAll()
}

// killCoordinator SIGKILLs a coordinator mid-campaign with two workers
// attached and restarts it on the same data dir and address: the
// journal replay re-runs both jobs and the untouched workers re-attach
// on their own.
func killCoordinator(r *rig) error {
	c, err := r.start("coordinator")
	if err != nil {
		return err
	}
	var workers []*proc
	for _, name := range []string{"w1", "w2"} {
		w, err := r.start("worker", "-coordinator", c.base(), "-worker-name", name)
		if err != nil {
			return err
		}
		workers = append(workers, w)
	}
	log.Printf("coordinator up at %s with workers w1, w2", c.base())
	jobs, err := submitMidHunt(c, 520)
	if err != nil {
		return err
	}
	log.Printf("sending SIGKILL")
	c.kill()
	c2, err := r.start("coordinator", "-listen", c.addr)
	if err != nil {
		return err
	}
	log.Printf("coordinator #2 up at %s (same data dir and address)", c2.base())
	if err := finishAll(c2.base(), jobs, r.trace); err != nil {
		return err
	}
	for i, w := range workers {
		if !w.alive() {
			return fmt.Errorf("worker w%d exited during the coordinator restart: %v", i+1, w.err)
		}
	}
	if err := requireMetrics(c2.base(), "coldbootd_jobs_done_total 2", "coldbootd_fleet_workers_alive 2"); err != nil {
		return err
	}
	log.Printf("both workers re-attached without a restart")
	return r.drainAll()
}

// killWorker SIGKILLs a worker that holds a shard lease and requires the
// shard to come back to the fleet, with the job's keys unchanged.
func killWorker(r *rig) error {
	const shardBlocks = 32768 // 16 shards of 2 MiB: each lease is held for a while
	c, err := r.start("coordinator", "-lease-ttl", "2s", "-shard-blocks", strconv.Itoa(shardBlocks))
	if err != nil {
		return err
	}
	fx := buildFixture(530, 32<<20)
	id, err := submit(c.base(), fx)
	if err != nil {
		return err
	}
	log.Printf("job %s submitted (32 MiB) to %s", id, c.base())

	// The doomed worker is the only one up, so a leased shard is its
	// lease. A kill landing between two of its leases strands nothing;
	// then a fresh worker takes its place and is killed in turn.
	for attempt := 1; ; attempt++ {
		w, err := r.start("worker", "-coordinator", c.base(), "-worker-name", "doomed-"+strconv.Itoa(attempt))
		if err != nil {
			return err
		}
		if err := waitLeased(c.base(), w); err != nil {
			return err
		}
		w.kill()
		text, err := metrics(c.base())
		if err != nil {
			return err
		}
		if metricValue(text, "coldbootd_fleet_shards_leased") >= 1 {
			log.Printf("worker doomed-%d SIGKILLed holding a lease", attempt)
			break
		}
		if attempt == 3 {
			return fmt.Errorf("no kill landed on a held lease in %d attempts", attempt)
		}
	}

	if _, err := r.start("worker", "-coordinator", c.base(), "-worker-name", "survivor"); err != nil {
		return err
	}
	if _, err := pollUntil(c.base(), id, "done"); err != nil {
		return err
	}
	if err := saveTrace(c.base(), id, r.trace); err != nil {
		return err
	}
	text, err := metrics(c.base())
	if err != nil {
		return err
	}
	requeues, steals := metricValue(text, "coldbootd_fleet_requeues_total"), metricValue(text, "coldbootd_fleet_steals_total")
	if requeues+steals < 1 {
		return fmt.Errorf("the dead worker's shard came back neither by requeue nor by steal (requeues %d, steals %d)", requeues, steals)
	}
	log.Printf("stranded shard recovered (requeues %d, steals %d)", requeues, steals)

	res, err := getResult(c.base(), id)
	if err != nil {
		return err
	}
	want, err := standaloneKeys(fx, shardBlocks)
	if err != nil {
		return err
	}
	if got := res.keySet(); !slices.Equal(got, want) {
		return fmt.Errorf("fleet keys after the worker kill differ from a standalone campaign's:\nfleet:      %v\nstandalone: %v", got, want)
	}
	log.Printf("job keys equal a standalone campaign's (%d keys)", len(want))
	return r.drainAll()
}

// multiFormatJob drives the headline path: one submitted dump, every
// format recovered and tagged in a single pass, with per-format counts on
// the status document and the metrics endpoint.
func multiFormatJob(base string, fx fixture, trace string) error {
	id, err := submit(base, fx)
	if err != nil {
		return err
	}
	log.Printf("job %s submitted", id)

	// Tail the live telemetry stream while the job runs: the first
	// connection reads from the start, asserts strictly ordered event
	// sequence numbers, and detaches after a handful of events, recording
	// its cursor for the resume check below.
	lastSeq, _, nLive, err := consumeEvents(base, id, 0, 5)
	if err != nil {
		return fmt.Errorf("live event stream: %w", err)
	}
	if nLive == 0 {
		return fmt.Errorf("live event stream delivered no events")
	}
	log.Printf("live stream: %d events, detached at cursor %d", nLive, lastSeq)

	doc, err := pollUntil(base, id, "done")
	if err != nil {
		return err
	}
	log.Printf("job done (progress %v)", doc["progress"])
	if tid, _ := doc["trace_id"].(string); tid == "" {
		return fmt.Errorf("done job carries no trace_id: %v", doc)
	}
	if err := saveTrace(base, id, trace); err != nil {
		return err
	}

	// Per-format tallies on the status document (the job's progress view).
	formats, _ := doc["formats"].(map[string]any)
	for name, want := range map[string]float64{
		"aesxts.candidates":   1,
		"luks2.candidates":    2,
		"chacha20.candidates": 1,
		"luks2.volumes":       1,
	} {
		if got, _ := formats[name].(float64); got != want {
			return fmt.Errorf("status formats[%q] = %v, want %v (have %v)", name, formats[name], want, formats)
		}
	}
	log.Printf("status reports per-format counts: %v", formats)

	// Every planted key comes back with the right format tag.
	res, err := getResult(base, id)
	if err != nil {
		return err
	}
	for _, k := range res.Keys {
		if k.Format == "luks2" && k.Volume != volumeUUID {
			return fmt.Errorf("luks2 key volume %q, want %q", k.Volume, volumeUUID)
		}
	}
	if !res.has("aesxts", fx.vera) {
		return fmt.Errorf("vera master not recovered under aesxts: %v", res.keySet())
	}
	if !res.has("luks2", fx.luksData) || !res.has("luks2", fx.luksTweak) {
		return fmt.Errorf("luks2 VMK pair not recovered: %v", res.keySet())
	}
	if !res.has("chacha20", fx.chachaKey) {
		return fmt.Errorf("chacha key not recovered under chacha20: %v", res.keySet())
	}
	if len(res.Volumes) != 1 {
		return fmt.Errorf("volumes = %s, want the sighted LUKS2 header", res.Volumes)
	}
	log.Printf("all three formats recovered and tagged (%d keys, 1 volume)", len(res.Keys))

	// Resume the event stream from the recorded cursor: each surviving
	// event arrives exactly once with a sequence number past the cursor,
	// and — the job being done — the server closes the connection itself
	// with an "end" line.
	endSeq, sawEnd, nResumed, err := consumeEvents(base, id, lastSeq, 0)
	if err != nil {
		return fmt.Errorf("resumed event stream: %w", err)
	}
	if !sawEnd {
		return fmt.Errorf("resumed event stream closed without an end line")
	}
	log.Printf("resumed stream: %d more events through seq %d, end line seen", nResumed, endSeq)

	// The metrics endpoint must have seen the pool, the pipeline, and the
	// per-format counters.
	return requireMetrics(base,
		"coldbootd_jobs_done_total 1",
		"coldbootd_pipeline_stage_wall_seconds",
		"coldbootd_pipeline_jobs_run_seconds_bucket",
		"coldbootd_pipeline_hunt_chunk_seconds_count",
		`{name="format.aesxts.candidates"} 1`,
		`{name="format.luks2.candidates"} 2`,
		`{name="format.chacha20.candidates"} 1`,
		`{name="format.luks2.volumes"} 1`,
	)
}

// cancelJob submits a larger fixture, DELETEs it after the first shards
// complete, and requires a partial result that still carries tagged
// per-format findings from the finished shards.
func cancelJob(d *proc) error {
	// 64 MiB: at the gated >=60 MB/s the scan runs for a sub-second
	// stretch, leaving a wide window for the DELETE to land mid-campaign
	// (an 8 MiB job is over in ~100ms — cancellation would race completion).
	fx := buildFixture(78, 64<<20)
	id, err := submit(d.base(), fx)
	if err != nil {
		return err
	}
	log.Printf("cancel job %s submitted (64 MiB)", id)
	if err := waitProgress(d, id, 4096); err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodDelete, d.base()+"/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	var ack map[string]any
	if err := decode(resp, &ack); err != nil {
		return err
	}
	if _, err := pollUntil(d.base(), id, "canceled"); err != nil {
		return err
	}

	res, err := getResult(d.base(), id)
	if err != nil {
		return err
	}
	if !res.Partial {
		return fmt.Errorf("canceled job's result not marked partial: %+v", res)
	}
	if res.Formats["aesxts"] < 1 {
		return fmt.Errorf("partial result lost the early aesxts finding: %+v", res)
	}
	if !res.has("aesxts", fx.vera) {
		return fmt.Errorf("partial result missing the planted vera master: %v", res.keySet())
	}
	log.Printf("DELETE mid-run kept partial per-format results (%d keys, formats %v)", len(res.Keys), res.Formats)
	return nil
}

// job is one submitted fixture.
type job struct {
	id string
	fx fixture
}

// submitMidHunt submits the two jobs of a kill scenario to d — a 64 MiB
// dump that is mid-campaign for a comfortable stretch at the gated scan
// rate, and a 2 MiB one queued behind it on the single job slot — and
// waits until the first is demonstrably mid-campaign. The caller then
// pulls the rug: SIGKILL, no drain, no flush.
func submitMidHunt(d *proc, seed int64) ([]job, error) {
	jobs := []job{{fx: buildFixture(seed, 64<<20)}, {fx: buildFixture(seed+1, 2<<20)}}
	for i := range jobs {
		var err error
		if jobs[i].id, err = submit(d.base(), jobs[i].fx); err != nil {
			return nil, err
		}
	}
	log.Printf("jobs submitted: %s (64 MiB, running), %s (2 MiB, queued)", jobs[0].id, jobs[1].id)
	if err := waitProgress(d, jobs[0].id, 4096); err != nil {
		return nil, err
	}
	log.Printf("job %s mid-hunt", jobs[0].id)
	return jobs, nil
}

// spoolPattern names coldbootd's upload spools in its data dir.
const spoolPattern = "coldbootd-*.cbdump"

// spools lists the upload spools in dataDir.
func spools(dataDir string) ([]string, error) {
	return filepath.Glob(filepath.Join(dataDir, spoolPattern))
}

// killMidUpload streams the first half of a container to d through a
// pipe that never delivers the rest, waits until the upload's spool in
// dataDir holds bytes, and SIGKILLs d with the upload in flight. It
// returns the spools that existed before the upload began: those of the
// jobs already submitted.
func killMidUpload(d *proc, dataDir string, seed int64) ([]string, error) {
	jobSpools, err := spools(dataDir)
	if err != nil {
		return nil, err
	}
	fx := buildFixture(seed, 2<<20)
	pr, pw := io.Pipe()
	// The write returns once the daemon has read the half, or with an
	// error once the pipe is closed below.
	go pw.Write(fx.container[:len(fx.container)/2])
	posted := make(chan struct{})
	go func() {
		defer close(posted)
		if resp, err := http.Post(d.base()+"/v1/jobs", "application/octet-stream", pr); err == nil {
			resp.Body.Close()
		}
	}()
	var orphan string
	err = poll("the upload's spool to hold bytes", 30*time.Second, 5*time.Millisecond, func() (bool, error) {
		if !d.alive() {
			return false, fmt.Errorf("daemon exited mid-upload: %v", d.err)
		}
		now, err := spools(dataDir)
		for _, path := range now {
			if fi, statErr := os.Stat(path); statErr == nil && fi.Size() > 0 && !slices.Contains(jobSpools, path) {
				orphan = path
			}
		}
		return orphan != "", err
	})
	d.kill()
	pr.Close()
	<-posted
	if err != nil {
		return nil, err
	}
	log.Printf("SIGKILLed mid-upload with %d job spool(s) and the half-uploaded %s on disk",
		len(jobSpools), filepath.Base(orphan))
	return jobSpools, nil
}

// finishAll requires every job to survive the kill under its ID and finish
// on base with its planted master, and saves the first (resumed) job's
// trace: it re-ran its campaign in the new process, so the timeline
// carries the full job/campaign/shard tree despite the kill.
func finishAll(base string, jobs []job, trace string) error {
	for _, j := range jobs {
		doc, err := pollUntil(base, j.id, "done")
		if err != nil {
			return fmt.Errorf("job %s after restart: %w", j.id, err)
		}
		log.Printf("job %s resumed and finished (progress %v)", j.id, doc["progress"])
		res, err := getResult(base, j.id)
		if err != nil {
			return err
		}
		if !res.has("aesxts", j.fx.vera) {
			return fmt.Errorf("job %s result missing the planted master: %v", j.id, res.keySet())
		}
	}
	log.Printf("every planted master recovered after kill -9")
	return saveTrace(base, jobs[0].id, trace)
}

// standaloneKeys runs fx through core.RunCampaignSource, the campaign a
// standalone daemon runs for a job submitted with ?repair=1, and returns
// its key set.
func standaloneKeys(fx fixture, shardBlocks int) ([]string, error) {
	res, err := core.RunCampaignSource(context.Background(), core.BytesSource(fx.dump), core.CampaignConfig{
		Attack:      core.Config{Variant: aes.AES256, RepairFlips: 1},
		ShardBlocks: shardBlocks,
	})
	if err != nil {
		return nil, err
	}
	var r result
	for _, k := range res.Keys {
		r.Keys = append(r.Keys, resultKey{Format: k.Format, Master: hex.EncodeToString(k.Master)})
	}
	return r.keySet(), nil
}

// fixture is one uploadable multi-format dump container plus its planted
// ground truth.
type fixture struct {
	container []byte
	dump      []byte
	vera      []byte
	luksData  []byte
	luksTweak []byte
	chachaKey []byte
}

// buildFixture returns a dump container with every supported target
// planted in a scrambled image under 0.05% bit decay. Decay spares the
// strict-parse LUKS2 header and the raw ChaCha state (intact page-cache
// pages); the AES schedules have repair machinery and take their lumps.
func buildFixture(seed int64, size int) fixture {
	rng := rand.New(rand.NewSource(seed))
	key32 := func() []byte {
		k := make([]byte, 32)
		rng.Read(k)
		return k
	}
	fx := fixture{vera: key32(), luksData: key32(), luksTweak: key32(), chachaKey: key32()}

	plain := make([]byte, size)
	if err := workload.Fill(plain, seed, workload.LightSystem); err != nil {
		log.Fatal(err)
	}
	copy(plain[veraStart:], aes.ExpandKeyBytes(fx.vera))
	copy(plain[luksStart:], aes.ExpandKeyBytes(fx.luksData))
	copy(plain[luksTweak:], aes.ExpandKeyBytes(fx.luksTweak))
	copy(plain[headerStart:], luks2.EncodeHeader(&luks2.Header{
		Primary:     true,
		Version:     2,
		HeaderSize:  16384,
		SeqID:       7,
		Label:       "smoke",
		ChecksumAlg: "sha256",
		UUID:        volumeUUID,
		Cipher:      "aes-xts-plain64",
		KeyBytes:    64,
	}))
	st := plain[chachaStart : chachaStart+64]
	for i, w := range chacha.Sigma() {
		binary.LittleEndian.PutUint32(st[4*i:], w)
	}
	copy(st[16:48], fx.chachaKey)
	binary.LittleEndian.PutUint32(st[48:], 1)

	fx.dump = make([]byte, size)
	scramble.NewSkylakeDDR4(uint64(seed)*31+7).Scramble(fx.dump, plain, 0)
	for i := 0; i < size*8/2000; i++ {
		bit := rng.Intn(size * 8)
		off := bit / 8
		if (off >= headerStart && off < headerStart+luks2.BinHeaderBytes+1024) ||
			(off >= chachaStart && off < chachaStart+64) {
			continue
		}
		fx.dump[off] ^= 1 << uint(bit%8)
	}

	var buf bytes.Buffer
	meta := dumpfile.Metadata{CPU: "serve-smoke rig", Channels: 1, ScramblerOn: true, FreezeTempC: -35, TransferSeconds: 60}
	if err := dumpfile.Write(&buf, meta, fx.dump); err != nil {
		log.Fatal(err)
	}
	fx.container = buf.Bytes()
	return fx
}

// rig is one scenario's scratch directory and the coldbootd processes it
// started. The directory is every daemon's data dir, so a restarted
// daemon replays its predecessor's journal.
type rig struct {
	bin, dir, trace string
	procs           []*proc
}

// proc is one coldbootd process.
type proc struct {
	cmd  *exec.Cmd
	addr string        // listen address; empty for a worker
	done chan struct{} // closed once the process exited; err then holds its status
	err  error
}

// start launches coldbootd in role. A standalone or coordinator daemon
// listens on a free loopback port, runs one job at a time in 2048-block
// shards and journals to the rig's directory, and start returns once it
// is listening. extra flags come last, so they override those defaults.
func (r *rig) start(role string, extra ...string) (*proc, error) {
	args := []string{"-role", role}
	addrFile := ""
	if role != "worker" {
		addrFile = filepath.Join(r.dir, "addr"+strconv.Itoa(len(r.procs)))
		args = append(args, "-listen", "127.0.0.1:0", "-addr-file", addrFile, "-workers", "1",
			"-shard-blocks", "2048", "-data-dir", r.dir, "-drain-timeout", "2m")
	}
	p := &proc{cmd: exec.Command(r.bin, append(args, extra...)...), done: make(chan struct{})}
	p.cmd.Stdout = os.Stderr
	p.cmd.Stderr = os.Stderr
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting coldbootd -role %s: %w", role, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	r.procs = append(r.procs, p)
	if addrFile == "" {
		return p, nil
	}
	var err error
	p.addr, err = waitForAddr(addrFile, p)
	return p, err
}

// drainAll SIGTERMs every live process and requires each to exit 0.
func (r *rig) drainAll() error {
	for _, p := range r.procs {
		if p.alive() {
			if err := p.drain(); err != nil {
				return err
			}
		}
	}
	return nil
}

// close kills whatever the scenario left running.
func (r *rig) close() {
	for _, p := range r.procs {
		if p.alive() {
			p.kill()
		}
	}
}

func (p *proc) base() string { return "http://" + p.addr }

func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// kill SIGKILLs the process and waits for it to die.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// drain SIGTERMs the process and requires a clean exit (status 0).
func (p *proc) drain() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.done:
		if p.err != nil {
			return fmt.Errorf("%v exited uncleanly after SIGTERM: %w", p.cmd.Args[1:3], p.err)
		}
	case <-time.After(2 * time.Minute):
		return fmt.Errorf("%v did not exit within 2m of SIGTERM", p.cmd.Args[1:3])
	}
	log.Printf("%v drained and exited 0", p.cmd.Args[1:3])
	return nil
}

// poll calls check every interval until it reports done or fails, and
// fails itself once timeout has passed.
func poll(what string, timeout, interval time.Duration, check func() (bool, error)) error {
	for deadline := time.Now().Add(timeout); ; time.Sleep(interval) {
		if done, err := check(); done || err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gave up after %v waiting for %s", timeout, what)
		}
	}
}

// waitForAddr polls a daemon's -addr-file, bailing early if the process
// dies before binding.
func waitForAddr(path string, p *proc) (addr string, err error) {
	err = poll("coldbootd to write "+path, 30*time.Second, 20*time.Millisecond, func() (bool, error) {
		if !p.alive() {
			return false, fmt.Errorf("coldbootd exited before listening: %v", p.err)
		}
		data, _ := os.ReadFile(path)
		addr = string(bytes.TrimSpace(data))
		return addr != "", nil
	})
	return addr, err
}

// submit posts a dump container with window repair on and returns the
// new job's ID.
func submit(base string, fx fixture) (string, error) {
	resp, err := http.Post(base+"/v1/jobs?repair=1", "application/octet-stream", bytes.NewReader(fx.container))
	if err != nil {
		return "", fmt.Errorf("submitting dump: %w", err)
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := decode(resp, &doc); err != nil {
		return "", err
	}
	return doc.ID, nil
}

// jobStatus fetches a job's status document.
func jobStatus(base, id string) (map[string]any, error) {
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	return doc, decode(resp, &doc)
}

// pollUntil polls a job's status document until its state is want,
// failing fast when the job lands in another final state.
func pollUntil(base, id, want string) (doc map[string]any, err error) {
	err = poll("job "+id+" to be "+want, 3*time.Minute, 50*time.Millisecond, func() (bool, error) {
		var err error
		if doc, err = jobStatus(base, id); err != nil {
			return false, fmt.Errorf("polling job %s: %w", id, err)
		}
		switch state, _ := doc["state"].(string); state {
		case want:
			return true, nil
		case "done", "failed", "canceled":
			return false, fmt.Errorf("job %s landed in %s, want %s: %v", id, state, want, doc["error"])
		}
		return false, nil
	})
	return doc, err
}

// waitProgress polls a job until its progress_done reaches minBlocks —
// proof the campaign is past mining and into shard work — failing if the
// job finishes first or the daemon dies.
func waitProgress(d *proc, id string, minBlocks float64) error {
	return poll(fmt.Sprintf("job %s to reach %v blocks", id, minBlocks), 2*time.Minute, 10*time.Millisecond, func() (bool, error) {
		if !d.alive() {
			return false, fmt.Errorf("daemon exited while job %s was running: %v", id, d.err)
		}
		doc, err := jobStatus(d.base(), id)
		if err != nil {
			return false, err
		}
		if state, _ := doc["state"].(string); state == "done" {
			return false, fmt.Errorf("job %s finished before %v blocks of progress were seen; shrink -shard-blocks", id, minBlocks)
		}
		done, _ := doc["progress_done"].(float64)
		return done >= minBlocks, nil
	})
}

// waitLeased polls a coordinator's metrics until a shard is leased,
// failing if worker w dies first.
func waitLeased(base string, w *proc) error {
	return poll("a shard lease", 2*time.Minute, 5*time.Millisecond, func() (bool, error) {
		if !w.alive() {
			return false, fmt.Errorf("worker exited before leasing: %v", w.err)
		}
		text, err := metrics(base)
		return metricValue(text, "coldbootd_fleet_shards_leased") >= 1, err
	})
}

// result is a job's result document, fetched with ?reveal=keys.
type result struct {
	Partial bool               `json:"partial"`
	Formats map[string]float64 `json:"formats"`
	Volumes []json.RawMessage  `json:"volumes"`
	Keys    []resultKey        `json:"keys"`
}

type resultKey struct {
	Format string `json:"format"`
	Master string `json:"master"` // hex
	Volume string `json:"volume"`
}

func getResult(base, id string) (result, error) {
	var res result
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result?reveal=keys")
	if err != nil {
		return res, err
	}
	return res, decode(resp, &res)
}

// has reports whether the result holds master under format.
func (r result) has(format string, master []byte) bool {
	return slices.Contains(r.keySet(), format+":"+hex.EncodeToString(master))
}

// keySet is the result's sorted "format:master" pairs.
func (r result) keySet() []string {
	out := make([]string, 0, len(r.Keys))
	for _, k := range r.Keys {
		out = append(out, k.Format+":"+k.Master)
	}
	slices.Sort(out)
	return out
}

// metrics fetches a daemon's Prometheus text.
func metrics(base string) (string, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	return string(text), err
}

// requireMetrics fails unless every want appears in the daemon's metrics.
func requireMetrics(base string, wants ...string) error {
	text, err := metrics(base)
	if err != nil {
		return err
	}
	for _, want := range wants {
		if !strings.Contains(text, want) {
			return fmt.Errorf("metrics missing %q", want)
		}
	}
	return nil
}

// metricValue reads an unlabelled sample from Prometheus text; -1 when it
// is absent.
func metricValue(text, name string) int {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, _ := strconv.Atoi(v)
			return n
		}
	}
	return -1
}

// eventLine is the union of a data event (obs.Event, keyed by "seq") and
// the stream's control lines (gap/heartbeat/end, keyed by "cursor").
type eventLine struct {
	Type   string `json:"type"`
	Seq    uint64 `json:"seq"`
	Cursor uint64 `json:"cursor"`
}

// consumeEvents reads a job's NDJSON event stream starting after cursor,
// asserting that sequence numbers only move forward, and returns the last
// position seen, whether the server's "end" line arrived, and how many
// data events were read. maxData > 0 detaches after that many data events
// (the live-tail case); 0 reads until the stream ends.
func consumeEvents(base, id string, cursor uint64, maxData int) (lastSeq uint64, sawEnd bool, nData int, err error) {
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?cursor=%d", base, id, cursor))
	if err != nil {
		return 0, false, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false, 0, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		return 0, false, 0, fmt.Errorf("events: Content-Type %q, want application/x-ndjson", ct)
	}
	lastSeq = cursor
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var line eventLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return lastSeq, sawEnd, nData, fmt.Errorf("bad stream line %q: %w", sc.Text(), err)
		}
		switch line.Type {
		case "end":
			return lastSeq, true, nData, nil
		case "heartbeat":
			// Keepalive; carries no new position.
		case "gap":
			// The reader fell behind the ring buffer; the cursor jumps
			// past the overwritten events but must still move forward.
			if line.Cursor <= lastSeq {
				return lastSeq, sawEnd, nData, fmt.Errorf("gap cursor %d not after %d", line.Cursor, lastSeq)
			}
			lastSeq = line.Cursor
		default: // a data event: span_start/span_end/span_attr/count/progress/observe
			if line.Seq <= lastSeq {
				return lastSeq, sawEnd, nData, fmt.Errorf("event seq %d not after %d (type %q)", line.Seq, lastSeq, line.Type)
			}
			lastSeq = line.Seq
			nData++
			if maxData > 0 && nData >= maxData {
				return lastSeq, false, nData, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return lastSeq, sawEnd, nData, err
	}
	return lastSeq, sawEnd, nData, fmt.Errorf("stream closed without an end line")
}

// saveTrace fetches a job's merged Chrome-trace timeline, validates its
// shape (valid Trace Event JSON, monotonic timestamps, the expected span
// names), and writes it to path.
func saveTrace(base, id, path string) error {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace %s: HTTP %d: %s", id, resp.StatusCode, data)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("trace %s is not Chrome trace JSON: %w", id, err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("trace %s has no events", id)
	}
	lastTs := -1.0
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.Ts < lastTs {
			return fmt.Errorf("trace %s timestamps not monotonic", id)
		}
		lastTs = e.Ts
		names[e.Name] = true
	}
	for _, want := range []string{"job", "campaign", "shard"} {
		if !names[want] {
			return fmt.Errorf("trace %s missing %q spans", id, want)
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	log.Printf("trace validated and saved to %s", path)
	return nil
}

// decode reads a JSON response body into v; a non-2xx answer is an
// error carrying the body.
func decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decoding %q: %w", data, err)
	}
	return nil
}
