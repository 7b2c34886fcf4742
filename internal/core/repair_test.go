package core

import (
	"bytes"
	"context"
	"math/bits"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"coldboot/internal/aes"
	"coldboot/internal/bitutil"
	"coldboot/internal/dram"
	"coldboot/internal/obs"
	"coldboot/internal/scramble"
	"coldboot/internal/workload"
)

// buildDecayRepairDump builds a dump the way the decay-repair benchmark
// workload does: LightSystem contents with masters AES-256 schedules
// planted one per equal slot, Skylake DDR4 scrambling, and decay through
// the retention model of the paper's DDR4-2400 module at -25 °C for
// 0.5 s (about 0.4 % of bits flipped). It returns the dump, the planted
// masters and their table starts.
func buildDecayRepairDump(t testing.TB, size, masters int, seed int64) (dump []byte, planted [][]byte, starts []int) {
	t.Helper()
	mod, planted, starts := decayRepairModule(t, size, masters, seed)
	dump = make([]byte, size)
	mod.Read(0, dump)
	return dump, planted, starts
}

// decayRepairModule is buildDecayRepairDump's module after the decay, for
// callers that also read its ground state.
func decayRepairModule(t testing.TB, size, masters int, seed int64) (mod *dram.Module, planted [][]byte, starts []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	plain := make([]byte, size)
	if err := workload.Fill(plain, seed, workload.LightSystem); err != nil {
		t.Fatal(err)
	}
	slot := size / masters
	for k := 0; k < masters; k++ {
		m := make([]byte, 32)
		rng.Read(m)
		off := k*slot + 16*rng.Intn((slot-512)/16)
		copy(plain[off:], aes.ExpandKeyBytes(m))
		planted = append(planted, m)
		starts = append(starts, off)
	}
	scrambled := make([]byte, size)
	scramble.NewSkylakeDDR4(uint64(seed)*31+7).Scramble(scrambled, plain, 0)
	spec := dram.ModuleCatalog[6]
	spec.Geometry = spec.Geometry.WithCapacity(size)
	mod, err := dram.NewModule(spec, seed^0x5eed)
	if err != nil {
		t.Fatal(err)
	}
	mod.Write(0, scrambled)
	mod.PowerOff()
	mod.SetTemperature(-25)
	mod.Elapse(500 * time.Millisecond)
	return mod, planted, starts
}

// failingHit is one litmus hit whose window-derived master fails
// verification: the input of every repair call the hunt makes.
type failingHit struct {
	block    [BlockBytes]byte // descrambled
	blockIdx int
	hit      ScheduleHit
	planted  bool // the hit lies on a planted schedule (a decayed window)
}

// collectFailingHits walks the dump the way the hunt does and returns
// every non-degenerate, in-range hit whose initial verification fails.
func collectFailingHits(t testing.TB, dump []byte, starts []int) ([]failingHit, KeyDirectory) {
	t.Helper()
	mine, err := MineKeys(context.Background(), dump, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stride := mine.InferStride()
	if stride == 0 {
		t.Fatal("decay fixture produced no stride")
	}
	dir := ResidueDirectory(mine, stride)
	onPlanted := func(start int) bool {
		for _, s := range starts {
			if start == s {
				return true
			}
		}
		return false
	}
	v := aes.AES256
	var out []failingHit
	var desc [BlockBytes]byte
	for b := 0; b < len(dump)/BlockBytes; b++ {
		stored := dump[b*BlockBytes : (b+1)*BlockBytes]
		if KeyLitmusDistance(stored) <= zeroBlockSkipDistance {
			continue
		}
		for _, key := range dir(b) {
			bitutil.XORBlock64(desc[:], stored, key)
			for _, hit := range AESLitmus(desc[:], v, DefaultAESTolerance) {
				start := hit.TableStart(b)
				if windowDegenerate(desc[:], hit, v.Nk()) || start < 0 || start+v.ScheduleBytes() > len(dump) {
					continue
				}
				if scheduleScore(dump, dir, aes.ExpandKeyBytes(hitMaster(desc[:], hit, v)), start) >= 0.8 {
					continue
				}
				out = append(out, failingHit{block: desc, blockIdx: b, hit: hit, planted: onPlanted(start)})
			}
		}
	}
	return out, dir
}

// repairFixture is a 1 MiB, 16-master decay fixture, the module's ground
// state (the capture a fully decayed DIMM gives) and its failing hits.
type repairFixture struct {
	dump   []byte
	ground []byte
	dir    KeyDirectory
	hits   []failingHit
}

var (
	sharedFixtureOnce sync.Once
	sharedFixture     *repairFixture
)

// decayRepairFixture builds the seed-1701 repair fixture once and shares
// it read-only between the repair tests and BenchmarkRepairWindow.
func decayRepairFixture(t testing.TB) *repairFixture {
	t.Helper()
	sharedFixtureOnce.Do(func() {
		mod, _, starts := decayRepairModule(t, 1<<20, 16, 1701)
		dump, ground := make([]byte, 1<<20), make([]byte, 1<<20)
		mod.Read(0, dump)
		mod.GroundState(0, ground)
		hits, dir := collectFailingHits(t, dump, starts)
		sharedFixture = &repairFixture{dump: dump, ground: ground, dir: dir, hits: hits}
	})
	if sharedFixture == nil {
		t.Fatal("the shared decay fixture failed to build")
	}
	return sharedFixture
}

// TestRepairMatchesFrozenSearch holds the repair search to its contract
// against the frozen seed searches on real failing hits of a decay
// fixture, application-data hits and decayed planted windows alike: blind
// mode against the single-flip reference, ground mode against the
// ground-state reference. Its effort counters over the sample are frozen:
// ground mode's equal what the separate search it replaced reported on
// the same hits, and blind mode's were re-frozen when the double-flip
// depth was deleted.
func TestRepairMatchesFrozenSearch(t *testing.T) {
	if raceEnabled {
		t.Skip("serial differential oracle: the reference search is too slow under the race detector")
	}
	fx := decayRepairFixture(t)
	modes := []struct {
		name   string
		ground []byte
		// every sample-th application-data hit joins every planted window
		sample int
		// want is {repair.calls, repair.candidates, repair.early_exits,
		// repair.bound_rejects}
		want [4]int64
	}{
		{"blind", nil, 16, [4]int64{222, 20228, 16579, 30392}},
		{"ground", fx.ground, 64, [4]int64{81, 89420, 78731, 5375}},
	}
	for _, m := range modes {
		var planted, app, accepted int
		var rs repairScratch
		for i, fh := range fx.hits {
			if fh.planted {
				planted++
			} else if i%m.sample != 0 {
				continue
			} else {
				app++
			}
			var got, want []byte
			var s, ws float64
			var ok bool
			if m.ground == nil {
				got, s, ok = repairWindowScratch(&rs, fx.dump, nil, fx.dir, fh.block[:], fh.blockIdx, fh.hit, aes.AES256)
				want, ws = refRepairWindow(fx.dump, fx.dir, fh.block[:], fh.blockIdx, fh.hit, aes.AES256, 1, minVerifyScore)
			} else {
				got, s, ok = repairWindowScratch(&rs, fx.dump, m.ground, fx.dir, fh.block[:], fh.blockIdx, fh.hit, aes.AES256)
				want, ws = refRepairWindowGround(fx.dump, m.ground, fx.dir, fh.block[:], fh.blockIdx, fh.hit, aes.AES256, groundRepairFlips, minVerifyScore)
			}
			checkRepairContract(t, m.name+" repairWindowScratch", got, s, ok, want, ws, minVerifyScore)
			if ok {
				accepted++
			}
		}
		if planted == 0 || app == 0 || accepted == 0 {
			t.Fatalf("%s: fixture exercised too little: %d planted windows, %d application hits, %d repaired", m.name, planted, app, accepted)
		}
		if effort := [4]int64{rs.repairs, rs.candidates, rs.earlyExits, rs.boundRejects}; effort != m.want {
			t.Errorf("%s: repair effort (calls, candidates, early exits, bound rejects) = %v, want %v", m.name, effort, m.want)
		}
		t.Logf("%s: %d planted windows, %d application hits, %d repaired", m.name, planted, app, accepted)
	}
}

// forEachRepairWindow calls check on repair inputs drawn from a 1 MiB
// AES-256 decay fixture: windows on every planted schedule, at both dump
// edges and at random table starts, under the residue directory, the
// exhaustive one (several keys per block) and a thinned residue one that
// leaves every fifth block keyless. Each window is the dump descrambled
// there (planted windows then carry real decay), with random flips, or
// replaced by noise.
func forEachRepairWindow(t *testing.T, check func(name string, dump []byte, dir KeyDirectory, block []byte, b int, hit ScheduleHit)) {
	t.Helper()
	dump, _, starts := buildDecayRepairDump(t, 1<<20, 16, 1702)
	mine, err := MineKeys(context.Background(), dump, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stride := mine.InferStride()
	dirs := map[string]KeyDirectory{
		"residue":    ResidueDirectory(mine, stride),
		"exhaustive": AllKeysDirectory(mine),
	}
	if len(mine.Keys) < 3 {
		t.Fatalf("exhaustive directory has %d keys, want >= 3", len(mine.Keys))
	}
	residue := dirs["residue"]
	dirs["sparse"] = func(b int) [][]byte {
		if b%5 == 0 {
			return nil
		}
		return residue(b)
	}
	v := aes.AES256
	nk := v.Nk()
	schedBytes := v.ScheduleBytes()
	rng := rand.New(rand.NewSource(17))
	for _, name := range []string{"residue", "exhaustive", "sparse"} {
		dir := dirs[name]
		var tables []int
		tables = append(tables, starts...)
		tables = append(tables, 0, 4, len(dump)-schedBytes, len(dump)-schedBytes-4)
		for i := 0; i < 24; i++ {
			tables = append(tables, 4*rng.Intn((len(dump)-schedBytes)/4))
		}
		for _, start := range tables {
			for trial := 0; trial < 6; trial++ {
				// The block holding schedule word a, descrambled with one
				// of its keys.
				a := rng.Intn(v.ScheduleWords() - nk - MinVerifyWords + 1)
				addr := start + 4*a
				b := addr / BlockBytes
				off := (addr % BlockBytes) / 4
				if off+nk+MinVerifyWords > BlockBytes/4 {
					continue
				}
				keys := dir(b)
				var block [BlockBytes]byte
				copy(block[:], dump[b*BlockBytes:])
				if len(keys) > 0 {
					bitutil.XORBlock64(block[:], block[:], keys[rng.Intn(len(keys))])
				}
				switch trial % 3 {
				case 1:
					for f := 0; f < 1+rng.Intn(3); f++ {
						bit := 32*off + rng.Intn(32*nk)
						block[bit/8] ^= 1 << uint(bit%8)
					}
				case 2:
					rng.Read(block[4*off : 4*(off+nk)])
				}
				hit := ScheduleHit{WordOffset: off, ScheduleIndex: a, VerifiedWords: MinVerifyWords}
				if hit.TableStart(b) != start {
					t.Fatalf("hit table start %d != %d", hit.TableStart(b), start)
				}
				check(name, dump, dir, block[:], b, hit)
			}
		}
	}
}

// TestOutwardScoreMatchesScheduleScore drives the repairer's outward,
// budgeted count against scheduleScore on forEachRepairWindow's windows:
// under budget the count must be exact, and it may stop early only when
// scheduleScore is below the threshold.
func TestOutwardScoreMatchesScheduleScore(t *testing.T) {
	v := aes.AES256
	totalBits := v.ScheduleBytes() * 8
	var rs repairScratch
	forEachRepairWindow(t, func(name string, dump []byte, dir KeyDirectory, block []byte, b int, hit ScheduleHit) {
		start := hit.TableStart(b)
		want := scheduleMismatch(dump, dir, aes.ExpandKeyBytes(hitMaster(block, hit, v)), start, totalBits)
		for _, minScore := range []float64{0.5, 0.8, 0.95, 1, matchScore(want, totalBits)} {
			r := newRepairer(&rs, dump, dir, block, b, hit, v, minScore)
			got := r.mismatch()
			wantPass := matchScore(want, totalBits) >= minScore
			switch {
			case got <= r.budget && got != want:
				t.Fatalf("%s start %d a %d minScore %v: count %d, scheduleScore's %d", name, start, hit.ScheduleIndex, minScore, got, want)
			case got > r.budget && wantPass:
				t.Fatalf("%s start %d a %d minScore %v: stopped at %d (budget %d) but scheduleScore passes with %d", name, start, hit.ScheduleIndex, minScore, got, r.budget, want)
			case (got <= r.budget) != wantPass:
				t.Fatalf("%s start %d a %d minScore %v: pass %v, scheduleScore's %v", name, start, hit.ScheduleIndex, minScore, got <= r.budget, wantPass)
			}
			if r.try() != wantPass {
				t.Fatalf("%s: try disagrees with the count", name)
			}
			if wantPass {
				if !bytes.Equal(rs.best[:32], hitMaster(block, hit, v)) || r.score != matchScore(want, totalBits) {
					t.Fatalf("%s: accepted candidate's master or score differs", name)
				}
			}
		}
		// The plain budgeted kernel obeys the same contract.
		for _, budget := range []int{-1, 0, want - 1, want, want + 1, totalBits} {
			got := scheduleMismatch(dump, dir, aes.ExpandKeyBytes(hitMaster(block, hit, v)), start, budget)
			if (got <= budget || want <= budget) && got != want {
				t.Fatalf("%s start %d: scheduleMismatch budget %d gave %d, exact %d", name, start, budget, got, want)
			}
		}
	})
}

// TestRepairBoundSound holds the repair search's byte bounds to what they
// claim. First, for every variant, schedule index and window byte, the
// reach table covers every schedule byte that any single flip in that
// byte changes, on random masters. Then, on forEachRepairWindow's windows,
// each window byte's lb is at most scheduleScore's exact mismatch for all
// eight flips of that byte. An exact count under the exhaustive directory
// walks every mined key per block, so only every tenth of its windows is
// checked.
func TestRepairBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, v := range []aes.Variant{aes.AES128, aes.AES192, aes.AES256} {
		nk, sw := v.Nk(), v.ScheduleWords()
		reach := reachFor(v)
		unreached, minUnreached, windows := 0, sw, 0
		for a := 0; a+nk <= sw; a++ {
			for j := 0; j < 4*nk; j++ {
				lanes := reach.window(a, j)
				n := 0
				for _, l := range lanes {
					n += 4 - bits.OnesCount8(l)
				}
				unreached += n
				minUnreached = min(minUnreached, n)
				windows++
				for trial := 0; trial < 3; trial++ {
					sched := aes.ExpandKey(testMaster(rng.Int63(), v.KeyBytes()))
					for bit := 0; bit < 8; bit++ {
						win := append([]uint32(nil), sched[a:a+nk]...)
						win[j/4] ^= 1 << uint(8*(3-j%4)+bit)
						flipped := aes.ExpandKey(aes.RecoverMasterKey(win, a, v))
						for i := range sched {
							for p := 0; p < 4; p++ {
								lane := uint32(0xff) << uint(8*(3-p))
								if sched[i]&lane != flipped[i]&lane && lanes[i]>>uint(p)&1 == 0 {
									t.Fatalf("%v a %d byte %d bit %d: schedule word %d byte %d changed outside the reach set", v, a, j, bit, i, p)
								}
							}
						}
					}
				}
			}
		}
		t.Logf("%v: a window byte leaves %.0f%% of schedule bytes unreached on average, at least %.0f%%",
			v, 100*float64(unreached)/float64(windows*4*sw), 100*float64(minUnreached)/float64(4*sw))
	}

	v := aes.AES256
	totalBits := v.ScheduleBytes() * 8
	var rs repairScratch
	exhaustive := 0
	forEachRepairWindow(t, func(name string, dump []byte, dir KeyDirectory, block []byte, b int, hit ScheduleHit) {
		if name == "exhaustive" {
			if exhaustive++; exhaustive%10 != 0 {
				return
			}
		}
		checkRepairBound(t, &rs, dump, dir, block, b, hit, v, totalBits)
	})
}

// checkRepairBound checks that every lb[j] of a repair of hit is at most
// the exact mismatch of each single flip in window byte j.
func checkRepairBound(t *testing.T, rs *repairScratch, dump []byte, dir KeyDirectory, block []byte, b int, hit ScheduleHit, v aes.Variant, totalBits int) {
	t.Helper()
	r := newRepairer(rs, dump, dir, block, b, hit, v, minVerifyScore)
	r.bound()
	work := append([]byte(nil), block...)
	for j := 0; j < 4*v.Nk(); j++ {
		for bit := 0; bit < 8; bit++ {
			i := 4*hit.WordOffset + j
			work[i] ^= 1 << uint(bit)
			exact := scheduleMismatch(dump, dir, aes.ExpandKeyBytes(hitMaster(work, hit, v)), hit.TableStart(b), totalBits)
			work[i] ^= 1 << uint(bit)
			if rs.lb[j] > exact {
				t.Fatalf("table start %d a %d: byte %d bound %d over bit %d's exact mismatch %d", hit.TableStart(b), hit.ScheduleIndex, j, rs.lb[j], bit, exact)
			}
		}
	}
}

// TestRepairScratchWipe: after repairs and a refine have filled every
// candidate- and key-bearing buffer, wipe leaves none of it behind.
func TestRepairScratchWipe(t *testing.T) {
	fx := decayRepairFixture(t)
	var rs repairScratch
	repaired := false
	for _, fh := range fx.hits {
		m, _, ok := repairWindowScratch(&rs, fx.dump, nil, fx.dir, fh.block[:], fh.blockIdx, fh.hit, aes.AES256)
		if ok {
			refineMasterScratch(&rs, fx.dump, fx.dir, m, fh.hit.TableStart(fh.blockIdx), aes.AES256)
			repaired = true
			break
		}
	}
	if !repaired {
		t.Fatal("no failing hit of the fixture repaired")
	}
	rs.wipe()
	words := [][]uint32{rs.blockWords[:], rs.winWords[:], rs.refWords[:], rs.observedWords[:], rs.cand[:], rs.obs[:cap(rs.obs)]}
	for i, w := range words {
		for _, x := range w {
			if x != 0 {
				t.Fatalf("word buffer %d not wiped", i)
			}
		}
	}
	for i, b := range [][]byte{rs.master[:], rs.best[:], rs.sched[:], rs.ref[:], rs.observed[:]} {
		if !bytes.Equal(b, make([]byte, len(b))) {
			t.Fatalf("byte buffer %d not wiped", i)
		}
	}
}

// TestRepairCounters: the hunt reports its repair effort once, summed
// over workers — one call per failing hit it repaired, every scored
// candidate, and the early exits among them.
func TestRepairCounters(t *testing.T) {
	fx := decayRepairFixture(t)
	count := func(workers int) map[string]int64 {
		col := obs.NewCollector()
		if _, err := Attack(context.Background(), fx.dump, Config{Workers: workers, RepairFlips: 1, Tracer: col}); err != nil {
			t.Fatal(err)
		}
		return col.Counters("repair.")
	}
	one := count(1)
	calls, cands, exits := one["calls"], one["candidates"], one["early_exits"]
	if calls == 0 || cands < calls || exits == 0 || exits > cands {
		t.Fatalf("repair counters implausible: %v", one)
	}
	if many := count(3); !reflect.DeepEqual(many, one) {
		t.Fatalf("repair counters depend on the worker count: 1 worker %v, 3 workers %v", one, many)
	}
}

// TestMismatchBudget pins the budget to the exact float comparison the
// scores are judged by.
func TestMismatchBudget(t *testing.T) {
	for _, totalBits := range []int{1024, 1536, 1920} {
		for _, minScore := range []float64{-1, 0, 0.5, 0.8, 0.80000001, 0.95, 0.999, 1, 1.5} {
			b := mismatchBudget(totalBits, minScore)
			for m := 0; m <= totalBits; m++ {
				if pass := matchScore(m, totalBits) >= minScore; pass != (m <= b) {
					t.Fatalf("bits %d minScore %v: budget %d but count %d passes=%v", totalBits, minScore, b, m, pass)
				}
			}
		}
	}
}

// BenchmarkRepairWindow runs single-flip repair over a fixed set of
// failing hits from a decay fixture: the first 48 application-data hits
// and every decayed planted window. The scratch is warmed first, so the
// steady state must not allocate.
func BenchmarkRepairWindow(b *testing.B) {
	fx := decayRepairFixture(b)
	dump, dir, all := fx.dump, fx.dir, fx.hits
	var hits []failingHit
	app := 0
	for _, fh := range all {
		if fh.planted || app < 48 {
			hits = append(hits, fh)
		}
		if !fh.planted {
			app++
		}
	}
	var rs repairScratch
	run := func() {
		for i := range hits {
			fh := &hits[i]
			repairWindowScratch(&rs, dump, nil, dir, fh.block[:], fh.blockIdx, fh.hit, aes.AES256)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
