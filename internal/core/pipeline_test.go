package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"coldboot/internal/obs"
	"coldboot/internal/workload"
)

// huntCancelTracer cancels a context the first time the hunt stage reports
// progress, and records the last progress value seen — the number of blocks
// the scan had processed when it actually stopped.
type huntCancelTracer struct {
	cancel   context.CancelFunc
	mu       sync.Mutex
	cancelAt int64 // progress when we pulled the plug
	lastDone int64 // final progress the stage reported
	total    int64
}

func (h *huntCancelTracer) StartSpan(string, ...obs.Attr) obs.Span { return obs.Nop.StartSpan("") }
func (h *huntCancelTracer) Count(string, int64)                    {}
func (h *huntCancelTracer) Observe(string, int64)                  {}

func (h *huntCancelTracer) Progress(stage string, done, total int64) {
	if stage != "hunt" {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cancelAt == 0 {
		h.cancelAt = done
		h.cancel()
	}
	h.lastDone = done
	h.total = total
}

// TestAttackMidScanCancellation cancels an attack from inside the hunt scan
// and checks it stops within one cancellation chunk of work instead of
// finishing the dump.
func TestAttackMidScanCancellation(t *testing.T) {
	dump := buildAttackDump(t, 1<<20, 41, workload.LightSystem, testMaster(401, 32), 4096*64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &huntCancelTracer{cancel: cancel}

	res, err := Attack(ctx, dump, Config{Workers: 1, Tracer: tr})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled attack returned no partial result")
	}
	if res.Mine == nil {
		t.Error("partial result lost the completed mine stage")
	}
	nBlocks := int64(len(dump) / BlockBytes)
	if tr.total != nBlocks {
		t.Errorf("hunt progress total = %d, want %d", tr.total, nBlocks)
	}
	// The single worker polls ctx every scanCancelChunkBlocks: after the
	// cancel lands it may finish at most the chunk in flight plus one more
	// before observing ctx.Err().
	limit := tr.cancelAt + 2*scanCancelChunkBlocks
	if tr.lastDone > limit {
		t.Errorf("hunt ran %d blocks past cancellation (stopped at %d, cancelled at %d, limit %d)",
			tr.lastDone-tr.cancelAt, tr.lastDone, tr.cancelAt, limit)
	}
	if tr.lastDone >= nBlocks {
		t.Error("hunt scanned the whole dump despite cancellation")
	}
}

// TestCampaignMidShardCancellation cancels a campaign from inside the first
// shard's hunt scan: the campaign must return promptly with the partial
// merged results and ctx.Err(), not run the remaining shards.
func TestCampaignMidShardCancellation(t *testing.T) {
	dump := buildAttackDump(t, 1<<20, 42, workload.LightSystem, testMaster(402, 32), 4096*64)

	full, err := RunCampaignSource(context.Background(), BytesSource(dump), CampaignConfig{
		ShardBlocks: 4096, Parallel: 1, Attack: Config{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &huntCancelTracer{cancel: cancel}
	res, err := RunCampaignSource(ctx, BytesSource(dump), CampaignConfig{
		ShardBlocks: 4096, Parallel: 1,
		Attack: Config{Workers: 1, Tracer: tr},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled campaign returned no partial result")
	}
	if res.Mine == nil {
		t.Error("partial campaign result lost the global mine")
	}
	if res.PairsTested == 0 {
		t.Error("mid-shard cancellation reported no work, want partial progress")
	}
	if res.PairsTested >= full.PairsTested {
		t.Errorf("cancelled campaign tested %d pairs, full run tested %d — no early stop",
			res.PairsTested, full.PairsTested)
	}
	// Promptness within the shard: the scan stops within one cancellation
	// chunk (plus the chunk in flight) of where the cancel landed.
	limit := tr.cancelAt + 2*scanCancelChunkBlocks
	if tr.lastDone > limit {
		t.Errorf("shard scan ran %d blocks past cancellation (limit %d)", tr.lastDone-tr.cancelAt, limit)
	}
}

// TestCampaignSourceStreamingParity runs the same dump through the resident
// fast path and the streaming BlockSource path and requires identical
// results — the streaming reader must not change what the attack finds.
func TestCampaignSourceStreamingParity(t *testing.T) {
	master := testMaster(403, 32)
	dump := buildAttackDump(t, 1<<20, 43, workload.LightSystem, master, 4096*64+128)

	resident, err := RunCampaignSource(context.Background(), BytesSource(dump), CampaignConfig{ShardBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	src, err := ReaderAtSource(readerAtOver(dump), int64(len(dump)))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := RunCampaignSource(context.Background(), src, CampaignConfig{ShardBlocks: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(resident.Keys) == 0 {
		t.Fatal("resident campaign found no keys")
	}
	if len(streamed.Keys) != len(resident.Keys) {
		t.Fatalf("streamed found %d keys, resident %d", len(streamed.Keys), len(resident.Keys))
	}
	for i := range resident.Keys {
		if string(streamed.Keys[i].Master) != string(resident.Keys[i].Master) ||
			streamed.Keys[i].TableStart != resident.Keys[i].TableStart ||
			streamed.Keys[i].Score != resident.Keys[i].Score {
			t.Errorf("key %d differs: streamed %+v, resident %+v", i, streamed.Keys[i], resident.Keys[i])
		}
	}
	if streamed.PairsTested != resident.PairsTested {
		t.Errorf("pairs tested: streamed %d, resident %d", streamed.PairsTested, resident.PairsTested)
	}
}

// readerAtOver adapts a byte slice to io.ReaderAt without exposing the
// sliceSource fast path, forcing the true streaming code path.
type sliceReaderAt []byte

func readerAtOver(b []byte) sliceReaderAt { return sliceReaderAt(b) }

func (s sliceReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n := copy(p, s[off:])
	return n, nil
}

// TestAttackStagesTraced checks a full attack emits one timing per pipeline
// stage and the headline candidate counters (the -trace contract).
func TestAttackStagesTraced(t *testing.T) {
	dump := buildAttackDump(t, 1<<20, 44, workload.LightSystem, testMaster(404, 32), 4096*64)
	col := obs.NewCollector()
	if _, err := Attack(context.Background(), dump, Config{Tracer: col}); err != nil {
		t.Fatal(err)
	}
	rep := col.Report()
	want := []string{"campaign", "campaign.mine", "shard", "hunt", "hunt.worker", "campaign.merge"}
	if len(rep.Stages) != len(want) {
		t.Fatalf("got %d stages, want %d: %+v", len(rep.Stages), len(want), rep.Stages)
	}
	for i, name := range want {
		if rep.Stages[i].Name != name {
			t.Errorf("stage %d = %q, want %q", i, rep.Stages[i].Name, name)
		}
	}
	for _, counter := range []string{"mine.blocks_scanned", "hunt.pairs_tested", "assemble.keys"} {
		if _, ok := rep.Counters[counter]; !ok {
			t.Errorf("counter %q missing from trace report", counter)
		}
	}
	if rep.Counters["mine.blocks_scanned"] != int64(len(dump)/BlockBytes) {
		t.Errorf("mine.blocks_scanned = %d, want %d", rep.Counters["mine.blocks_scanned"], len(dump)/BlockBytes)
	}
	// The verify latency histogram must have sampled (a planted key always
	// reaches verification at least once).
	var names []string
	for _, h := range rep.Histograms {
		names = append(names, h.Name)
		if h.Count <= 0 {
			t.Errorf("histogram %s has no samples", h.Name)
		}
	}
	found := false
	for _, n := range names {
		if n == "hunt.verify_ns" {
			found = true
		}
	}
	if !found {
		t.Errorf("hunt.verify_ns histogram missing from report (have %v)", names)
	}
}

// checkCampaignSpanTree asserts the one span tree every attack entry point
// traces: campaign → {campaign.mine, shard → hunt → hunt.worker,
// campaign.merge}, with shards shard spans and workers hunt.worker spans
// per hunt, and nothing else.
func checkCampaignSpanTree(t *testing.T, spans []obs.SpanRecord, shards, workers int) {
	t.Helper()
	byID := map[uint64]obs.SpanRecord{}
	var root obs.SpanRecord
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "campaign" {
			root = s
		}
	}
	if root.ID == 0 {
		t.Fatalf("no campaign root span: %+v", spans)
	}
	if root.Parent != 0 {
		t.Errorf("campaign root has parent %d, want none", root.Parent)
	}
	parentOf := map[string]string{
		"campaign.mine":  "campaign",
		"shard":          "campaign",
		"campaign.merge": "campaign",
		"hunt":           "shard",
		"hunt.worker":    "hunt",
	}
	count := map[string]int{}
	for _, s := range spans {
		count[s.Name]++
		if s.Root != root.ID {
			t.Errorf("span %s escaped the campaign tree", s.Name)
		}
		if s.ID == root.ID {
			continue
		}
		want, ok := parentOf[s.Name]
		if !ok {
			t.Errorf("unexpected span %q in the campaign tree", s.Name)
			continue
		}
		if got := byID[s.Parent].Name; got != want {
			t.Errorf("%s parent is %q, want %q", s.Name, got, want)
		}
	}
	for name, want := range map[string]int{
		"campaign.mine": 1, "campaign.merge": 1,
		"shard": shards, "hunt": shards, "hunt.worker": shards * workers,
	} {
		if count[name] != want {
			t.Errorf("got %d %s spans, want %d", count[name], name, want)
		}
	}
}

// TestAttackSpanTree checks Attack traces the campaign tree with its one
// shard, the hunt's worker spans under it.
func TestAttackSpanTree(t *testing.T) {
	dump := buildAttackDump(t, 1<<20, 44, workload.LightSystem, testMaster(404, 32), 4096*64)
	col := obs.NewCollector()
	if _, err := Attack(context.Background(), dump, Config{Tracer: col, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	checkCampaignSpanTree(t, col.Spans(), 1, 2)
}

// TestCampaignSpanTree checks sharded runs trace the same tree as Attack,
// one shard → hunt branch per shard.
func TestCampaignSpanTree(t *testing.T) {
	dump := buildAttackDump(t, 1<<20, 45, workload.LightSystem, testMaster(405, 32), 4096*64)
	col := obs.NewCollector()
	if _, err := RunCampaignSource(context.Background(), BytesSource(dump), CampaignConfig{
		ShardBlocks: 8192, Parallel: 1, Attack: Config{Workers: 1, Tracer: col},
	}); err != nil {
		t.Fatal(err)
	}
	plan, err := PlanCampaignSource(context.Background(), BytesSource(dump), CampaignConfig{ShardBlocks: 8192})
	if err != nil {
		t.Fatal(err)
	}
	plan.Close()
	checkCampaignSpanTree(t, col.Spans(), len(plan.Shards), 1)
}
