package core

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	"coldboot/internal/workload"
)

// TestWorkerDefaults pins the zero-value ergonomics: a zero Config and a
// zero CampaignConfig must come out of withDefaults with machine-sized
// worker pools, never zero or negative (which would deadlock the chunked
// scans).
func TestWorkerDefaults(t *testing.T) {
	if got := (Config{}).withDefaults().Workers; got != runtime.NumCPU() {
		t.Errorf("Config.Workers default = %d, want NumCPU = %d", got, runtime.NumCPU())
	}
	if got := (Config{Workers: -3}).withDefaults().Workers; got != runtime.NumCPU() {
		t.Errorf("negative Workers normalized to %d, want %d", got, runtime.NumCPU())
	}
	if got := (Config{Workers: 2}).withDefaults().Workers; got != 2 {
		t.Errorf("explicit Workers overridden: %d", got)
	}
	cc := (CampaignConfig{}).withDefaults()
	if cc.Parallel != runtime.NumCPU() {
		t.Errorf("CampaignConfig.Parallel default = %d, want %d", cc.Parallel, runtime.NumCPU())
	}
	if cc.Attack.Workers < 1 {
		t.Errorf("campaign per-shard Workers = %d, want >= 1", cc.Attack.Workers)
	}
	if cc.Parallel*cc.Attack.Workers > 2*runtime.NumCPU() {
		t.Errorf("campaign defaults multiply: %d shards x %d workers on %d CPUs",
			cc.Parallel, cc.Attack.Workers, runtime.NumCPU())
	}
	cc = (CampaignConfig{Parallel: 2, Attack: Config{Workers: 3}}).withDefaults()
	if cc.Parallel != 2 || cc.Attack.Workers != 3 {
		t.Errorf("explicit campaign parallelism overridden: %+v", cc)
	}
}

// TestAttackWorkerPoolRace hammers the attack's block-scan worker pool:
// concurrent Attack calls over a shared dump, each fanning out its own
// workers, must all agree with a single-worker reference run. Run under
// -race by the Makefile's race gate.
func TestAttackWorkerPoolRace(t *testing.T) {
	master := testMaster(777, 32)
	const tableStart = 64*4096 + 128
	dump := buildAttackDump(t, 1<<20, 9, workload.LightSystem, master, tableStart)
	ref, err := Attack(context.Background(), dump, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Keys) == 0 || !bytes.Equal(ref.Keys[0].Master, master) {
		t.Fatal("reference attack failed; race test is vacuous")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			res, err := Attack(context.Background(), dump, Config{Workers: workers})
			if err != nil {
				t.Error(err)
				return
			}
			if len(res.Keys) != len(ref.Keys) {
				t.Errorf("workers=%d: %d keys, want %d", workers, len(res.Keys), len(ref.Keys))
				return
			}
			for j := range res.Keys {
				if !bytes.Equal(res.Keys[j].Master, ref.Keys[j].Master) ||
					res.Keys[j].TableStart != ref.Keys[j].TableStart ||
					res.Keys[j].Score != ref.Keys[j].Score {
					t.Errorf("workers=%d: key %d diverged from single-worker run", workers, j)
				}
			}
			if res.PairsTested != ref.PairsTested {
				t.Errorf("workers=%d: PairsTested = %d, want %d", workers, res.PairsTested, ref.PairsTested)
			}
		}(i%3 + 1)
	}
	wg.Wait()
}

// TestCampaignParallelShardRace drives the campaign's shard pool with more
// in-flight shards than CPUs and checks the merged result matches a direct
// single-shot attack.
func TestCampaignParallelShardRace(t *testing.T) {
	master := testMaster(778, 32)
	const tableStart = 2*4096*64 + 640
	dump := buildAttackDump(t, 2<<20, 10, workload.LightSystem, master, tableStart)
	direct, err := Attack(context.Background(), dump, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCampaignSource(context.Background(), BytesSource(dump), CampaignConfig{
		ShardBlocks: 2048, // 128 KiB shards: many shards in flight at once
		Parallel:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) != len(direct.Keys) {
		t.Fatalf("campaign found %d keys, direct attack %d", len(res.Keys), len(direct.Keys))
	}
	for i := range res.Keys {
		if !bytes.Equal(res.Keys[i].Master, direct.Keys[i].Master) {
			t.Errorf("campaign key %d diverged from direct attack", i)
		}
	}
}
