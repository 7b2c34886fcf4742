package core

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"coldboot/internal/aes"
	"coldboot/internal/obs"
	"coldboot/internal/scramble"
	"coldboot/internal/workload"
)

func TestShardsCoverEverything(t *testing.T) {
	shards := Shards(100000, 8192, 8)
	covered := make([]bool, 100000)
	for _, sh := range shards {
		for b := sh.FirstBlock; b < sh.FirstBlock+sh.Blocks; b++ {
			covered[b] = true
		}
	}
	for b, ok := range covered {
		if !ok {
			t.Fatalf("block %d uncovered", b)
		}
	}
	// Adjacent shards overlap by the requested amount.
	if shards[1].FirstBlock != 8192 || shards[0].Blocks != 8192+8 {
		t.Errorf("unexpected sharding: %+v %+v", shards[0], shards[1])
	}
}

func TestShardsDegenerate(t *testing.T) {
	if got := Shards(100, 0, 4); len(got) != 1 || got[0].Blocks != 100 {
		t.Errorf("zero shard size: %+v", got)
	}
	if got := Shards(10, 100, 4); len(got) != 1 || got[0].Blocks != 10 {
		t.Errorf("oversized shard: %+v", got)
	}
}

func TestCampaignMatchesSingleAttack(t *testing.T) {
	master := testMaster(300, 32)
	const tableStart = 4096*64 + 96
	dump := buildAttackDump(t, 2<<20, 30, workload.LightSystem, master, tableStart)

	single, err := Attack(context.Background(), dump, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		ticks []int64
	)
	camp, err := RunCampaignSource(context.Background(), BytesSource(dump), CampaignConfig{
		ShardBlocks: 4096, // 256 KiB shards: the table straddles boundaries
		Parallel:    4,
		Attack: Config{Tracer: &obs.Funcs{OnProgress: func(stage string, done, total int64) {
			if stage != "campaign" {
				return
			}
			if total != int64(len(dump)/64) {
				t.Errorf("campaign progress total %d, want %d", total, len(dump)/64)
			}
			mu.Lock()
			ticks = append(ticks, done)
			mu.Unlock()
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(camp.Keys, single.Keys) {
		t.Fatalf("campaign keys differ from the single attack's:\n campaign %+v\n single   %+v", camp.Keys, single.Keys)
	}
	if camp.Stride != single.Stride || camp.Coverage != single.Coverage {
		t.Errorf("campaign stride %d coverage %v, single attack %d %v", camp.Stride, camp.Coverage, single.Stride, single.Coverage)
	}
	if !reflect.DeepEqual(camp.Mine.Keys, single.Mine.Keys) {
		t.Errorf("campaign mined %d keys, single attack %d, or their pools differ", len(camp.Mine.Keys), len(single.Mine.Keys))
	}
	if len(camp.Keys) == 0 || !bytes.Equal(camp.Keys[0].Master, master) {
		t.Error("campaign recovered wrong key")
	}
	if camp.Keys[0].TableStart != tableStart {
		t.Errorf("campaign table start %d, want %d", camp.Keys[0].TableStart, tableStart)
	}
	// Overlap blocks are scanned twice but owned once: progress climbs
	// strictly and the final report lands exactly on the total.
	if len(ticks) < 2 {
		t.Fatalf("campaign progress ticked %d times, want one per shard", len(ticks))
	}
	for i, done := range ticks {
		if done > int64(len(dump)/64) || (i > 0 && done <= ticks[i-1]) {
			t.Errorf("bad campaign progress %d after %v", done, ticks[:i])
		}
	}
	if last := ticks[len(ticks)-1]; last != int64(len(dump)/64) {
		t.Errorf("final campaign progress %d, want every block (%d)", last, len(dump)/64)
	}
}

func TestCampaignTableStraddlingShardBoundary(t *testing.T) {
	// Put the schedule right across a shard boundary: the overlap region
	// must keep it visible to one shard in full.
	master := testMaster(301, 32)
	shardBlocks := 4096
	tableStart := shardBlocks*64 - 128 // straddles the first boundary
	dump := buildAttackDump(t, 2<<20, 31, workload.LightSystem, master, tableStart)
	camp, err := RunCampaignSource(context.Background(), BytesSource(dump), CampaignConfig{ShardBlocks: shardBlocks})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range camp.Keys {
		if bytes.Equal(k.Master, master) {
			found = true
		}
	}
	if !found {
		t.Fatal("boundary-straddling key lost")
	}
}

func TestCampaignCancellation(t *testing.T) {
	dump := buildAttackDump(t, 1<<20, 32, workload.LightSystem, testMaster(302, 32), 4096*64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first shard
	res, err := RunCampaignSource(ctx, BytesSource(dump), CampaignConfig{ShardBlocks: 1024})
	if err == nil {
		t.Error("cancelled campaign reported success")
	}
	if res == nil {
		t.Fatal("cancelled campaign returned no partial result")
	}
	if res.PairsTested != 0 {
		t.Error("cancelled-before-start campaign scanned pairs")
	}
}

func TestCampaignRejectsUnalignedDump(t *testing.T) {
	if _, err := Attack(context.Background(), make([]byte, 100), Config{}); err == nil {
		t.Error("unaligned dump accepted")
	}
	if _, err := ReaderAtSource(readerAtOver(make([]byte, 100)), 100); err == nil {
		t.Error("unaligned streaming source accepted")
	}
}

// TestCampaignRejectsGroundDump: a ground dump is only usable beside a
// memory-resident dump of the same length, so a streaming campaign or a
// mismatched ground dump must fail up front instead of silently scanning
// without it.
func TestCampaignRejectsGroundDump(t *testing.T) {
	dump, groundDump, _, _ := buildGroundScenario(t, 2)
	src, err := ReaderAtSource(readerAtOver(dump), int64(len(dump)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{Attack: Config{GroundDump: groundDump}}
	if plan, err := PlanCampaignSource(context.Background(), src, cfg); err == nil {
		plan.Close()
		t.Error("PlanCampaignSource accepted a ground dump over a streaming source")
	}
	if res, err := RunCampaignSource(context.Background(), src, cfg); err == nil {
		t.Errorf("RunCampaignSource accepted a ground dump over a streaming source and returned %d keys", len(res.Keys))
	}
	cfg.Attack.GroundDump = groundDump[:len(groundDump)-BlockBytes]
	if res, err := RunCampaignSource(context.Background(), BytesSource(dump), cfg); err == nil {
		t.Errorf("RunCampaignSource accepted a short ground dump and returned %d keys", len(res.Keys))
	}
}

// TestCampaignShardsRepairAgainstGroundSlices: over a resident dump, each
// shard repairs against its own slice of the ground dump, so a sharded
// campaign recovers what the one-shard Attack does.
func TestCampaignShardsRepairAgainstGroundSlices(t *testing.T) {
	dump, groundDump, master, _ := buildGroundScenario(t, 2)
	single, err := Attack(context.Background(), dump, Config{GroundDump: groundDump})
	if err != nil {
		t.Fatal(err)
	}
	camp, err := RunCampaignSource(context.Background(), BytesSource(dump), CampaignConfig{
		ShardBlocks: len(dump) / BlockBytes / 4, Parallel: 2,
		Attack: Config{GroundDump: groundDump},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(camp.Keys, single.Keys) {
		t.Fatalf("sharded ground repair found %+v, Attack %+v", camp.Keys, single.Keys)
	}
	found := false
	for _, k := range camp.Keys {
		found = found || bytes.Equal(k.Master, master)
	}
	if !found {
		t.Fatal("sharded ground repair lost the planted master")
	}
}

// TestCampaignCountersOnce: the mining counters come from the one global
// mine and assemble.keys from the one merge, however many shards scan.
func TestCampaignCountersOnce(t *testing.T) {
	dump := buildAttackDump(t, 2<<20, 30, workload.LightSystem, testMaster(300, 32), 4096*64+96)
	for _, shardBlocks := range []int{4096, 8192} {
		col := obs.NewCollector()
		res, err := RunCampaignSource(context.Background(), BytesSource(dump), CampaignConfig{
			ShardBlocks: shardBlocks, Parallel: 2, Attack: Config{Tracer: col},
		})
		if err != nil {
			t.Fatal(err)
		}
		got := col.Report().Counters
		want := map[string]int64{
			"mine.keys":           int64(len(res.Mine.Keys)),
			"mine.blocks_scanned": int64(res.Mine.BlocksScanned),
			"mine.blocks_passed":  int64(res.Mine.BlocksPassed),
			"assemble.keys":       int64(len(res.Keys)),
		}
		for name, w := range want {
			if got[name] != w {
				t.Errorf("shard blocks %d: %s = %d, want %d", shardBlocks, name, got[name], w)
			}
		}
	}
}

func TestMergeShardResultsDedup(t *testing.T) {
	k1 := FoundKey{Master: []byte("a"), TableStart: 1000, Score: 0.9}
	k1dup := FoundKey{Master: []byte("a"), TableStart: 1000, Score: 0.95}
	k2 := FoundKey{Master: []byte("b"), TableStart: 5000, Score: 0.8}
	out := MergeShardResults([]FoundKey{k1, k1dup, k2}, 240)
	if len(out) != 2 {
		t.Fatalf("merged to %d keys, want 2", len(out))
	}
	if out[0].Score != 0.95 {
		t.Error("merge did not keep the best-scoring duplicate")
	}
}

func TestCampaignXTSPair(t *testing.T) {
	m1 := testMaster(303, 32)
	m2 := testMaster(304, 32)
	plain := make([]byte, 2<<20)
	workload.Fill(plain, 33, workload.LightSystem)
	const tableStart = 4096 * 64
	copy(plain[tableStart:], aes.ExpandKeyBytes(m1))
	copy(plain[tableStart+240:], aes.ExpandKeyBytes(m2))
	s := scramble.NewSkylakeDDR4(1234)
	dump := make([]byte, len(plain))
	s.Scramble(dump, plain, 0)
	camp, err := RunCampaignSource(context.Background(), BytesSource(dump), CampaignConfig{ShardBlocks: 2048, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, k := range camp.Keys {
		got[string(k.Master)] = true
	}
	if !got[string(m1)] || !got[string(m2)] {
		t.Fatalf("XTS pair not recovered by campaign (%d keys)", len(camp.Keys))
	}
}
