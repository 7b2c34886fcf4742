package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"time"

	"coldboot/internal/core"
	"coldboot/internal/dumpfile"
	"coldboot/internal/format"
	"coldboot/internal/obs"
	"coldboot/internal/secret"
)

// layerTimes is one fixture's library pipeline, timed layer by layer from
// outside: the same calls the service makes for a job, in the same order,
// with a stopwatch around each public entry point.
type layerTimes struct {
	verify   time.Duration // dumpfile.Open + VerifyChecksum
	mine     time.Duration // core.PlanCampaignSource
	read     time.Duration // shard reads through the dumpfile reader
	scan     time.Duration // ScanShardBytes at repair=0, summed over shards
	repair   time.Duration // the same shards at the job's repair level, minus scan
	finalize time.Duration // CampaignPlan.Finalize
	// wall is the pipeline's wall time at the job's repair level (the
	// repair=0 comparison scans excluded).
	wall time.Duration

	imageBytes  int64
	mineScanned int
	minePassed  int
	mineKeys    int
	pairs       int64
	keys        int
	counters    map[string]int64
	verifyP50Ns int64 // p50 of the hunt.verify_ns histogram
}

// self sums the layer self times; the layers are disjoint calls, so each
// one's self time is its duration.
func (l layerTimes) self() time.Duration {
	return l.verify + l.mine + l.read + l.scan + l.repair + l.finalize
}

// timePipeline spools fx the way the service does, then runs the service's
// analysis path over the spooled file one public call at a time. At
// repair > 0 every shard is also scanned at repair=0 through a plan
// rebuilt from the wire projection (no second mining pass), and the
// difference is the repair layer. The key set must match the reference.
func timePipeline(ctx context.Context, fx *fixture, repair int, dir string, rec *recorder) (layerTimes, error) {
	var lt layerTimes
	path := filepath.Join(dir, "pipeline-"+strconv.Itoa(fx.index)+".cbdump")
	if err := os.WriteFile(path, fx.container, 0o600); err != nil {
		return lt, err
	}
	defer os.Remove(path)

	col := obs.NewCollector()
	cfg := serviceCampaign(repair)
	cfg.Attack.Tracer = col
	root := rec.newID()
	// timed runs one layer call under a stopwatch, adds its duration to d
	// and records it as a span under the pipeline root.
	timed := func(name string, d *time.Duration, call func() error) error {
		t0 := time.Now()
		err := call()
		took := time.Since(t0)
		*d += took
		rec.add(0, root, "pipeline", name, t0, took)
		return err
	}
	start := time.Now()

	var (
		f   *dumpfile.File
		src core.BlockSource
	)
	err := timed("dumpfile.verify", &lt.verify, func() error {
		var err error
		if f, err = dumpfile.Open(path); err != nil {
			return err
		}
		if err = f.VerifyChecksum(); err != nil {
			return err
		}
		src, err = core.ReaderAtSource(f, f.Size())
		return err
	})
	if f != nil {
		defer f.Close()
	}
	if err != nil {
		return lt, err
	}

	var plan *core.CampaignPlan
	err = timed("core.mine", &lt.mine, func() error {
		var err error
		plan, err = core.PlanCampaignSource(ctx, src, cfg)
		return err
	})
	if plan != nil {
		defer plan.Close()
	}
	if err != nil {
		return lt, err
	}

	// The comparison plan scans at repair=0 with its own collector, so the
	// reported hunt counters are the job's own. It is rebuilt from the
	// wire projection, so mining does not run twice.
	var base *core.CampaignPlan
	if repair > 0 {
		wire := plan.Wire()
		wire.RepairFlips = 0
		if base, err = core.PlanFromWire(wire, obs.NewCollector()); err != nil {
			return lt, err
		}
		defer base.Close()
	}

	var (
		keys      []core.FoundKey
		vols      []format.Volume
		pairs     int64
		extra     time.Duration // repair=0 comparison scans, outside the job's path
		scanAtLvl time.Duration
	)
	// The first shard is the largest: later ones only lose the overlap
	// or end early.
	buf := make([]byte, plan.Shards[0].Blocks*core.BlockBytes)
	for _, sh := range plan.Shards {
		sub := buf[:sh.Blocks*core.BlockBytes]
		if err := timed("dumpfile.read", &lt.read, func() error { return src.ReadBlocks(sh.FirstBlock, sub) }); err != nil {
			return lt, err
		}
		var sr core.ShardResult
		if err := timed("core.scan", &scanAtLvl, func() error {
			var err error
			sr, err = plan.ScanShardBytes(ctx, sub, sh, nil)
			return err
		}); err != nil {
			return lt, err
		}
		keys = append(keys, sr.Keys...)
		vols = append(vols, sr.Volumes...)
		pairs += sr.Pairs
		if base != nil {
			if err := timed("core.scan.repair0", &extra, func() error {
				_, err := base.ScanShardBytes(ctx, sub, sh, nil)
				return err
			}); err != nil {
				return lt, err
			}
		}
	}
	var res *core.Result
	timed("core.finalize", &lt.finalize, func() error {
		res = plan.Finalize(keys, vols, pairs)
		return nil
	})
	total := time.Since(start)
	lt.wall = total - extra
	rec.add(root, 0, "pipeline", "pipeline", start, total, obs.A("fixture", strconv.Itoa(fx.index)))

	lt.scan = scanAtLvl
	if base != nil {
		lt.scan = extra
		lt.repair = scanAtLvl - extra
	}
	got := make([]string, 0, len(res.Keys))
	for _, k := range res.Keys {
		got = append(got, keyID(k.Format, secret.Fingerprint(k.Master), k.TableStart))
	}
	sort.Strings(got)
	if !slices.Equal(got, fx.reference) {
		return lt, fmt.Errorf("pipeline on fixture %d: key set %v differs from the reference %v", fx.index, got, fx.reference)
	}

	rep := col.Report()
	lt.imageBytes = f.Size()
	lt.mineScanned = plan.Mine.BlocksScanned
	lt.minePassed = plan.Mine.BlocksPassed
	lt.mineKeys = len(plan.Mine.Keys)
	lt.pairs = res.PairsTested
	lt.keys = len(res.Keys)
	lt.counters = rep.Counters
	for _, hs := range rep.Histograms {
		if hs.Name == "hunt.verify_ns" {
			lt.verifyP50Ns = hs.P50
		}
	}
	return lt, nil
}
