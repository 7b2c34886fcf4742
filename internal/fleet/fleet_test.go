package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coldboot/internal/aes"
	"coldboot/internal/core"
	_ "coldboot/internal/format/all" // register every built-in scanner
	"coldboot/internal/format/luks2"
	"coldboot/internal/obs"
	"coldboot/internal/scramble"
	"coldboot/internal/workload"
)

// Differential parity: a 3-worker fleet campaign over a scrambled,
// decayed dump must produce byte-identical results — the same FoundKey
// set with the same scores and the same volume tagging — as a
// single-process core.RunCampaignSource over the same bytes. This is the
// subsystem's acceptance bar: distribution must be invisible in the
// output.

const (
	fxSize        = 2 << 20
	fxSeed        = 91
	fxVeraStart   = 1200*core.BlockBytes + 32 // lone AES-256 schedule
	fxLUKSStart   = 9000*core.BlockBytes + 16 // XTS data key schedule…
	fxLUKSTweak   = fxLUKSStart + 240         // …tweak schedule, adjacent
	fxHeaderStart = 20000 * core.BlockBytes   // LUKS2 volume header copy
	fxUUID        = "0f1ee7e0-aaaa-bbbb-cccc-0123456789ab"
)

// buildDecayedDump plants a lone AES schedule plus a LUKS2 pair and its
// volume header in a scrambled image, then flips ~0.05% of the bits.
// Decay spares the strict-parse volume header and the XTS pair (tagging
// requires both halves to survive, and intact page-cache copies are the
// realistic shape); the lone schedule takes its lumps and leans on
// window repair.
func buildDecayedDump(t testing.TB) (dump, vera, luksData []byte) {
	return buildDecayedDumpOpt(t, true)
}

func buildDecayedDumpOpt(t testing.TB, decay bool) (dump, vera, luksData []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(fxSeed))
	key32 := func() []byte {
		k := make([]byte, 32)
		rng.Read(k)
		return k
	}
	vera, luksData, luksTweak := key32(), key32(), key32()

	plain := make([]byte, fxSize)
	if err := workload.Fill(plain, fxSeed, workload.LightSystem); err != nil {
		t.Fatal(err)
	}
	copy(plain[fxVeraStart:], aes.ExpandKeyBytes(vera))
	copy(plain[fxLUKSStart:], aes.ExpandKeyBytes(luksData))
	copy(plain[fxLUKSTweak:], aes.ExpandKeyBytes(luksTweak))
	copy(plain[fxHeaderStart:], luks2.EncodeHeader(&luks2.Header{
		Primary:     true,
		Version:     2,
		HeaderSize:  16384,
		SeqID:       5,
		Label:       "fleet-parity",
		ChecksumAlg: "sha256",
		UUID:        fxUUID,
		Cipher:      "aes-xts-plain64",
		KeyBytes:    64,
	}))

	dump = make([]byte, fxSize)
	scramble.NewSkylakeDDR4(uint64(fxSeed)*31+7).Scramble(dump, plain, 0)
	if decay {
		for i := 0; i < fxSize*8/2000; i++ {
			bit := rng.Intn(fxSize * 8)
			off := bit / 8
			if (off >= fxHeaderStart && off < fxHeaderStart+luks2.BinHeaderBytes+1024) ||
				(off >= fxLUKSStart && off < fxLUKSTweak+240) {
				continue
			}
			dump[off] ^= 1 << uint(bit%8)
		}
	}
	return dump, vera, luksData
}

func parityConfig() core.CampaignConfig {
	return core.CampaignConfig{
		ShardBlocks: 4096, // 8 shards over the 2 MiB fixture
		Attack:      core.Config{RepairFlips: 1, Workers: 2},
	}
}

func TestFleetParityWithLocalCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process campaign parity is not a -short test")
	}
	if raceEnabled {
		t.Skip("deterministic parity comparison; -race multiplies the full-campaign runtime past the package timeout (see race_on_test.go)")
	}
	dump, vera, luksData := buildDecayedDump(t)

	local, err := core.RunCampaignSource(context.Background(), core.BytesSource(dump), parityConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Keys) == 0 {
		t.Fatal("fixture recovered no keys locally; parity would be vacuous")
	}
	recovered := map[string]bool{}
	for _, k := range local.Keys {
		recovered[string(k.Master)] = true
	}
	if !recovered[string(vera)] || !recovered[string(luksData)] {
		t.Fatalf("local campaign missed planted masters (%d keys)", len(local.Keys))
	}

	// The fleet side runs fully traced (the local baseline ran with the
	// obs.Nop path), so a byte-identical result also proves tracing never
	// perturbs the pipeline's output.
	col := obs.NewCollector()
	coord := NewCoordinator(5*time.Second, col)
	mux := http.NewServeMux()
	coord.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2", "w3"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			w := &Worker{Base: srv.URL, Name: name}
			w.Run(ctx)
		}(name)
	}

	// Accepted completions advance the campaign progress exactly as the
	// local shard loop does: strictly increasing, ending on the total.
	var (
		pmu   sync.Mutex
		ticks []int64
	)
	cfg := parityConfig()
	cfg.Attack.Tracer = obs.Multi(col, &obs.Funcs{OnProgress: func(stage string, done, total int64) {
		if stage != "campaign" {
			return
		}
		if total != int64(len(dump)/core.BlockBytes) {
			t.Errorf("campaign progress total %d, want %d", total, len(dump)/core.BlockBytes)
		}
		pmu.Lock()
		ticks = append(ticks, done)
		pmu.Unlock()
	}})
	fleet, err := coord.Run(context.Background(), core.BytesSource(dump), cfg)
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	pmu.Lock()
	defer pmu.Unlock()
	if len(ticks) < 2 {
		t.Fatalf("campaign progress ticked %d times, want one per shard", len(ticks))
	}
	for i, done := range ticks {
		if done > int64(len(dump)/core.BlockBytes) || (i > 0 && done <= ticks[i-1]) {
			t.Errorf("bad campaign progress %d after %v", done, ticks[:i])
		}
	}
	if last := ticks[len(ticks)-1]; last != int64(len(dump)/core.BlockBytes) {
		t.Errorf("final campaign progress %d, want every block (%d)", last, len(dump)/core.BlockBytes)
	}

	// Byte-identical across the merge surface: keys (masters, scores,
	// offsets, formats, volume tags), volumes, and the campaign scalars.
	localJSON, _ := json.Marshal(struct {
		Stride   int
		Coverage float64
		Pairs    int64
		Keys     []core.FoundKey
		Volumes  any
	}{local.Stride, local.Coverage, local.PairsTested, local.Keys, local.Volumes})
	fleetJSON, _ := json.Marshal(struct {
		Stride   int
		Coverage float64
		Pairs    int64
		Keys     []core.FoundKey
		Volumes  any
	}{fleet.Stride, fleet.Coverage, fleet.PairsTested, fleet.Keys, fleet.Volumes})
	if string(localJSON) != string(fleetJSON) {
		t.Fatalf("fleet result diverged from local campaign:\nlocal: %s\nfleet: %s", localJSON, fleetJSON)
	}

	// The wire plan carries no hunt width: the fleet workers hunt on
	// their own CPUs, and a local campaign one hunt worker wide must
	// still report the same keys.
	serialCfg := parityConfig()
	serialCfg.Attack.Workers = 1
	serial, err := core.RunCampaignSource(context.Background(), core.BytesSource(dump), serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Keys, fleet.Keys) || !reflect.DeepEqual(serial.Volumes, fleet.Volumes) {
		t.Fatalf("keys differ across hunt widths:\none worker: %+v\nfleet:      %+v", serial.Keys, fleet.Keys)
	}

	// The planted LUKS2 data key must carry the volume UUID in both.
	tagged := false
	for _, k := range fleet.Keys {
		if string(k.Master) == string(luksData) && k.Volume == fxUUID {
			tagged = true
		}
	}
	if !tagged {
		t.Fatalf("fleet campaign lost the LUKS2 volume tag (keys %+v, volumes %+v)", fleet.Keys, fleet.Volumes)
	}

	st := coord.Stats()
	if st.Campaigns != 0 {
		t.Fatalf("campaign not unregistered after Run (%d live)", st.Campaigns)
	}

	validateMergedTimeline(t, col)
}

// TestRunWaitsForLastShardBooking: Run returns only once every accepted
// shard's progress, stage aggregates and events are in the campaign's
// collector and journal — what a job's status document, its fold into
// /metrics and its event stream read as soon as Run returns. A progress
// hook slows each accepted completion's booking, so a Run that merged as
// soon as the board accepted the last shard would miss that shard's share.
func TestRunWaitsForLastShardBooking(t *testing.T) {
	dump, _, _ := buildDecayedDumpOpt(t, false)
	total := int64(len(dump) / core.BlockBytes)
	coord := NewCoordinator(5*time.Second, obs.NewCollector())
	mux := http.NewServeMux()
	coord.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	for _, name := range []string{"w1", "w2"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			(&Worker{Base: srv.URL, Name: name}).Run(ctx)
		}(name)
	}

	col := obs.NewJournaledCollector(1 << 14)
	cfg := core.CampaignConfig{ShardBlocks: 4096}
	cfg.Attack.Tracer = obs.Multi(col, &obs.Funcs{OnProgress: func(stage string, done, total int64) {
		if stage == "campaign" && done > 0 {
			time.Sleep(50 * time.Millisecond)
		}
	}})
	if _, err := coord.Run(context.Background(), core.BytesSource(dump), cfg); err != nil {
		t.Fatal(err)
	}

	shards := int((total + 4095) / 4096)
	stages := map[string]obs.StageReport{}
	for _, st := range col.Stages() {
		stages[st.Name] = st
	}
	if st := stages["campaign"]; st.Done != total || st.Total != total {
		t.Errorf("campaign stage progress %d/%d at return, want %d/%d", st.Done, st.Total, total, total)
	}
	if got := stages["shard"].Calls; got != shards {
		t.Errorf("grafted shard stage calls %d at return, want %d", got, shards)
	}
	events, _ := col.Journal().ReadSince(0, 1<<14)
	var last int64
	for _, e := range events {
		if e.Type == "progress" && e.Name == "campaign" {
			last = e.Done
		}
	}
	if last != total {
		t.Errorf("last campaign progress event %d, want %d", last, total)
	}
}

// validateMergedTimeline checks the acceptance contract on the
// coordinator's collector after a traced fleet run: one trace tree holds
// the campaign root, every lease span, and every worker's grafted shard
// subtree; each shard appears exactly once on a named worker track; and
// the clock-corrected tree is monotonic (children never start before
// their parents).
func validateMergedTimeline(t *testing.T, col *obs.Collector) {
	t.Helper()
	spans := col.Spans()
	byID := make(map[uint64]obs.SpanRecord, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var campaignRoot uint64
	for _, s := range spans {
		if s.Name == "campaign" && s.Parent == 0 {
			campaignRoot = s.Root
		}
	}
	if campaignRoot == 0 {
		t.Fatal("no campaign root span in coordinator collector")
	}

	shardsSeen := map[string]int{}
	tracks := map[string]bool{}
	for _, s := range spans {
		if s.Track == "" {
			continue
		}
		tracks[s.Track] = true
		if s.Root != campaignRoot {
			t.Fatalf("grafted span %q on track %q outside the campaign tree (root %d, want %d)", s.Name, s.Track, s.Root, campaignRoot)
		}
		parent, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("grafted span %q has dangling parent %d", s.Name, s.Parent)
		}
		if s.StartNs < parent.StartNs {
			t.Fatalf("merged tree not monotonic: %q starts %d before parent %q at %d", s.Name, s.StartNs, parent.Name, parent.StartNs)
		}
		if s.Name == "shard" {
			if parent.Name != "fleet.lease" {
				t.Fatalf("worker shard span parented under %q, want fleet.lease", parent.Name)
			}
			for _, a := range s.Attrs {
				if a.Key == "shard" {
					shardsSeen[a.Value]++
				}
			}
		}
	}
	if len(tracks) == 0 {
		t.Fatal("no worker tracks in the merged timeline")
	}
	for tr := range tracks {
		if tr != "w1" && tr != "w2" && tr != "w3" {
			t.Fatalf("unexpected track %q", tr)
		}
	}
	if len(shardsSeen) != 8 {
		t.Fatalf("expected all 8 shards on worker tracks, saw %v", shardsSeen)
	}
	for idx, n := range shardsSeen {
		if n != 1 {
			t.Fatalf("shard %s grafted %d times, want exactly once", idx, n)
		}
	}

	// The merged trace must render as a valid Chrome trace with one lane
	// per worker plus the coordinator lane.
	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged chrome trace not valid JSON: %v", err)
	}
	lanes := map[string]bool{}
	lastTs := -1.0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			lanes[e.Args["name"]] = true
		case "X":
			if e.Ts < lastTs {
				t.Fatalf("chrome trace ts not monotonic: %g after %g", e.Ts, lastTs)
			}
			lastTs = e.Ts
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	if !lanes["coordinator"] {
		t.Fatalf("no coordinator lane in merged trace (lanes %v)", lanes)
	}
	for tr := range tracks {
		if !lanes[tr] {
			t.Fatalf("worker %q has grafted spans but no named lane (lanes %v)", tr, lanes)
		}
	}
}

// TestWirePlanRoundTrip pins the wire projection: a worker-side plan
// rebuilt from the binary frame carries the coordinator's mine pool
// unchanged and scans a shard to the exact bytes the coordinator-side
// plan produces.
func TestWirePlanRoundTrip(t *testing.T) {
	dump, _, _ := buildDecayedDump(t)
	plan, err := core.PlanCampaignSource(context.Background(), core.BytesSource(dump), parityConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()

	frame, err := core.EncodeWirePlan(plan.Wire())
	if err != nil {
		t.Fatal(err)
	}
	wire, err := core.DecodeWirePlan(frame)
	if err != nil {
		t.Fatal(err)
	}
	if want := plan.Wire(); !reflect.DeepEqual(wire, want) {
		t.Fatalf("decoded wire plan differs:\n got  %+v\n want %+v", wire, want)
	}
	remote, err := core.PlanFromWire(wire, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if remote.Overlap != plan.Overlap {
		t.Fatalf("worker plan overlap %d, coordinator's %d", remote.Overlap, plan.Overlap)
	}

	sh := plan.Shards[2]
	sub := dump[sh.FirstBlock*core.BlockBytes : (sh.FirstBlock+sh.Blocks)*core.BlockBytes]
	lr, err := plan.ScanShardBytes(context.Background(), sub, sh, nil)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := remote.ScanShardBytes(context.Background(), sub, sh, nil)
	if err != nil {
		t.Fatal(err)
	}
	lj, _ := json.Marshal(lr)
	rj, _ := json.Marshal(rr)
	if string(lj) != string(rj) {
		t.Fatalf("wire-rebuilt plan diverged on shard %d:\nlocal:  %s\nremote: %s", sh.Index, lj, rj)
	}
}

// gatedSource serves a dump normally until armed. An armed read signals
// entered, waits for release and then fails the way a read of a source
// closed under it does.
type gatedSource struct {
	core.BlockSource
	armed   atomic.Bool
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (s *gatedSource) ReadBlocks(first int, buf []byte) error {
	if !s.armed.Load() {
		return s.BlockSource.ReadBlocks(first, buf)
	}
	s.once.Do(func() { close(s.entered) })
	<-s.release
	return os.ErrClosed
}

// leaseOne polls the coordinator until it hands out a lease.
func leaseOne(t *testing.T, base string) leaseResponse {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := http.Post(base+"/v1/shards/lease", "application/json", strings.NewReader(`{"worker":"probe"}`))
		if err != nil {
			t.Fatal(err)
		}
		var lr leaseResponse
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&lr)
		}
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if lr.Campaign != "" {
			return lr
		}
	}
	t.Fatal("no lease within 30s")
	return leaseResponse{}
}

func getData(t *testing.T, base, campaign, lease string, first, blocks int) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/shards/data?campaign=" + campaign + "&lease=" + lease +
		"&first_block=" + strconv.Itoa(first) + "&blocks=" + strconv.Itoa(blocks))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestDataAfterCampaignEndsIsGone: a shard-data read that was in flight
// when its campaign ended (so the source was closed under it) answers 410
// like every other lease call on a finished campaign, not 500; so does a
// read after Run returned.
func TestDataAfterCampaignEndsIsGone(t *testing.T) {
	dump, _, _ := buildDecayedDumpOpt(t, false)
	src := &gatedSource{BlockSource: core.BytesSource(dump), entered: make(chan struct{}), release: make(chan struct{})}
	coord := NewCoordinator(5*time.Second, nil)
	mux := http.NewServeMux()
	coord.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		coord.Run(ctx, src, core.CampaignConfig{ShardBlocks: 4096})
	}()
	lease := leaseOne(t, srv.URL)

	src.armed.Store(true)
	status := make(chan int, 1)
	go func() {
		status <- getData(t, srv.URL, lease.Campaign, lease.Lease, lease.Shard.FirstBlock, lease.Shard.Blocks)
	}()
	<-src.entered
	cancel()
	<-runDone
	close(src.release)
	if got := <-status; got != http.StatusGone {
		t.Errorf("data read in flight as the campaign ended: HTTP %d, want 410", got)
	}
	if got := getData(t, srv.URL, lease.Campaign, lease.Lease, lease.Shard.FirstBlock, lease.Shard.Blocks); got != http.StatusGone {
		t.Errorf("data read after Run returned: HTTP %d, want 410", got)
	}
}

// TestDataRangeOverflowRejected: ranges whose end overflows int must be
// rejected with 400 before any buffer is sized from them.
func TestDataRangeOverflowRejected(t *testing.T) {
	dump, _, _ := buildDecayedDumpOpt(t, false)
	coord := NewCoordinator(5*time.Second, nil)
	mux := http.NewServeMux()
	coord.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		coord.Run(ctx, core.BytesSource(dump), core.CampaignConfig{ShardBlocks: 4096})
	}()
	defer func() { cancel(); <-runDone }()
	lease := leaseOne(t, srv.URL)

	for _, r := range [][2]int{{1, math.MaxInt}, {math.MaxInt, 1}, {math.MaxInt - 3, 8}, {0, len(dump)/core.BlockBytes + 1}} {
		if got := getData(t, srv.URL, lease.Campaign, lease.Lease, r[0], r[1]); got != http.StatusBadRequest {
			t.Errorf("first_block=%d blocks=%d: HTTP %d, want 400", r[0], r[1], got)
		}
	}
	if got := getData(t, srv.URL, lease.Campaign, lease.Lease, lease.Shard.FirstBlock, lease.Shard.Blocks); got != http.StatusOK {
		t.Errorf("leased shard range: HTTP %d, want 200", got)
	}
}

// TestDataRequiresLiveLease: shard data is served only to a live lease,
// and only for that lease's exact shard. A missing, expired or completed
// lease and an off-lease range all answer 410.
func TestDataRequiresLiveLease(t *testing.T) {
	h := newTracingHarness(t, 4)
	clk := &fakeClock{}
	h.sess.board.now = clk.now
	h.sess.src = core.BytesSource(make([]byte, 4*128*core.BlockBytes))
	get := func(lease string, sh core.Shard) int {
		wr := httptest.NewRecorder()
		h.coord.handleData(wr, httptest.NewRequest(http.MethodGet, "/v1/shards/data?campaign=c1&lease="+lease+
			"&first_block="+strconv.Itoa(sh.FirstBlock)+"&blocks="+strconv.Itoa(sh.Blocks), nil))
		return wr.Code
	}
	l, ok := h.sess.board.Lease("w1")
	if !ok {
		t.Fatal("no lease")
	}
	if got := get(l.ID, l.Shard); got != http.StatusOK {
		t.Fatalf("leased shard: HTTP %d, want 200", got)
	}
	other := testShards(4, 128)[l.Shard.Index+1]
	part := core.Shard{FirstBlock: l.Shard.FirstBlock, Blocks: 1}
	for name, tc := range map[string]struct {
		lease string
		sh    core.Shard
	}{
		"another shard's range": {l.ID, other},
		"part of the shard":     {l.ID, part},
		"no lease":              {"", l.Shard},
		"unknown lease":         {"l99", l.Shard},
	} {
		if got := get(tc.lease, tc.sh); got != http.StatusGone {
			t.Errorf("%s: HTTP %d, want 410", name, got)
		}
	}

	clk.advance(int64(time.Minute) + 1)
	if got := get(l.ID, l.Shard); got != http.StatusGone {
		t.Errorf("expired lease: HTTP %d, want 410", got)
	}
	done, _ := h.sess.board.Lease("w2")
	if _, ok := h.sess.board.Complete(done.ID, result(done.Shard), nil); !ok {
		t.Fatal("completion refused")
	}
	if got := get(done.ID, done.Shard); got != http.StatusGone {
		t.Errorf("completed lease: HTTP %d, want 410", got)
	}
}

// TestStatsKeepFinishedCampaignCounters: requeues, steals and stragglers
// are counted on the coordinator's tracer, not on a campaign's board, so
// a finished campaign's share stays counted after it unregisters.
func TestStatsKeepFinishedCampaignCounters(t *testing.T) {
	h := newTracingHarness(t, 2)
	clk := &fakeClock{}
	h.sess.board.now = clk.now
	h.sess.board.Lease("w1")
	clk.advance(int64(time.Minute) + 1)
	h.sess.board.Expire()
	requeues := func() int64 { return h.col.Counters("fleet.")["requeues"] }
	if n := requeues(); n != 1 {
		t.Fatalf("live campaign: %d requeues, want 1", n)
	}
	h.coord.unregister(h.sess)
	if st, n := h.coord.Stats(), requeues(); st.Campaigns != 0 || n != 1 {
		t.Fatalf("after unregister: %d campaigns, %d requeues, want 0 and 1", st.Campaigns, n)
	}
}

// plantedDump is a scrambled, undecayed image with one AES-256 master
// planted; the seed picks the contents, the master and the scrambler key.
func plantedDump(t testing.TB, seed int64) (dump, master []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	master = make([]byte, 32)
	rng.Read(master)
	plain := make([]byte, fxSize)
	if err := workload.Fill(plain, seed, workload.LightSystem); err != nil {
		t.Fatal(err)
	}
	copy(plain[fxVeraStart:], aes.ExpandKeyBytes(master))
	dump = make([]byte, fxSize)
	scramble.NewSkylakeDDR4(uint64(seed)*31+7).Scramble(dump, plain, 0)
	return dump, master
}

// TestWorkerOutlivesCoordinatorRestart: a worker keeps running while the
// coordinator behind its URL is replaced by a fresh process that runs a
// different dump. Workers cache plans by campaign ID, so the new
// process's first campaign must not share an ID with the old one's: the
// fleet result must be byte-identical to a local campaign over the new
// dump, not a scan with the old dump's plan.
func TestWorkerOutlivesCoordinatorRestart(t *testing.T) {
	dumpA, _ := plantedDump(t, 501)
	dumpB, masterB := plantedDump(t, 777)
	cfg := core.CampaignConfig{ShardBlocks: 4096, Attack: core.Config{Workers: 1}}
	local, err := core.RunCampaignSource(context.Background(), core.BytesSource(dumpB), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Keys) == 0 || !bytes.Equal(local.Keys[0].Master, masterB) {
		t.Fatalf("local campaign missed the planted master (%d keys); the comparison would be vacuous", len(local.Keys))
	}

	var current atomic.Pointer[http.ServeMux]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	defer srv.Close()
	boot := func() *Coordinator {
		c := NewCoordinator(5*time.Second, nil)
		mux := http.NewServeMux()
		c.Register(mux)
		current.Store(mux)
		return c
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		(&Worker{Base: srv.URL, Name: "w1"}).Run(ctx)
	}()

	first := boot()
	if _, err := first.Run(ctx, core.BytesSource(dumpA), cfg); err != nil {
		t.Fatal(err)
	}
	second := boot()
	first.Close() // ends the worker's held lease call on the old process
	fleet, err := second.Run(ctx, core.BytesSource(dumpB), cfg)
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	localJSON, _ := json.Marshal(local.Keys)
	fleetJSON, _ := json.Marshal(fleet.Keys)
	if string(localJSON) != string(fleetJSON) {
		t.Fatalf("fleet result after the coordinator restart diverged from the local campaign:\nlocal: %s\nfleet: %s", localJSON, fleetJSON)
	}
}

// TestRunRefusesProcessLocalConfig: a KeysForBlock override and a ground
// dump live in the coordinator's memory and cannot ride the wire plan, so
// a fleet campaign refuses them up front instead of scanning without them.
func TestRunRefusesProcessLocalConfig(t *testing.T) {
	c := NewCoordinator(time.Minute, nil)
	defer c.Close()
	dump := make([]byte, 64*core.BlockBytes)
	for name, attack := range map[string]core.Config{
		"KeysForBlock": {KeysForBlock: func(int) [][]byte { return nil }},
		"GroundDump":   {GroundDump: make([]byte, len(dump))},
	} {
		if res, err := c.Run(context.Background(), core.BytesSource(dump), core.CampaignConfig{Attack: attack}); err == nil {
			t.Errorf("%s: fleet campaign accepted it and returned %+v", name, res)
		}
	}
}
