package coldboot

// One benchmark per table and figure of the paper. Each bench regenerates
// the corresponding result (the cmd/ tools print the same data in the
// paper's row/series format); the measured time documents the simulation
// cost of the experiment.

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"coldboot/internal/aes"
	"coldboot/internal/bitutil"
	"coldboot/internal/core"
	"coldboot/internal/dram"
	"coldboot/internal/dumpfile"
	"coldboot/internal/engine"
	"coldboot/internal/machine"
	"coldboot/internal/memimg"
	"coldboot/internal/obs"
	"coldboot/internal/scramble"
	"coldboot/internal/workload"
)

// BenchmarkTableI builds and boots every Table I machine.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cpu := range machine.TableI {
			m, err := machine.New(machine.Config{CPU: cpu, DIMMBytes: 1 << 20, ScramblerOn: true, BIOSEntropy: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Boot(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure1ScramblerModel exercises the Figure 1 data path: data
// XORed with a PRNG stream keyed by (seed, address) on write and read.
func BenchmarkFigure1ScramblerModel(b *testing.B) {
	s := scramble.NewSkylakeDDR4(1)
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf) * 2))
	for i := 0; i < b.N; i++ {
		s.Scramble(buf, buf, 0)
		s.Descramble(buf, buf, 0)
	}
}

// BenchmarkXORWords measures the word-level XOR kernel the whole attack hot
// path now runs on (4 KiB buffers, in place, zero allocations).
func BenchmarkXORWords(b *testing.B) {
	buf := make([]byte, 4096)
	key := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(key)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bitutil.XORWords(buf, buf, key)
	}
}

// BenchmarkXORBlock64 measures the unrolled one-burst kernel used per
// (block, key) descramble trial.
func BenchmarkXORBlock64(b *testing.B) {
	buf := make([]byte, 64)
	key := make([]byte, 64)
	rand.New(rand.NewSource(2)).Read(key)
	b.SetBytes(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bitutil.XORBlock64(buf, buf, key)
	}
}

// BenchmarkAttackDump measures the full Section III-C pipeline (mine +
// per-candidate descramble + schedule verify) over a 2 MiB scrambled dump
// with the default machine-sized worker pool.
func BenchmarkAttackDump(b *testing.B) {
	plain := make([]byte, 2<<20)
	if err := workload.Fill(plain, 7, workload.LightSystem); err != nil {
		b.Fatal(err)
	}
	key := make([]byte, 32)
	rand.New(rand.NewSource(8)).Read(key)
	copy(plain[4096*64+128:], aes.ExpandKeyBytes(key))
	s := scramble.NewSkylakeDDR4(11)
	dump := make([]byte, len(plain))
	s.Scramble(dump, plain, 0)
	b.SetBytes(int64(len(dump)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Attack(context.Background(), dump, core.Config{Workers: runtime.NumCPU()})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Keys) == 0 {
			b.Fatal("key not recovered")
		}
	}
}

// BenchmarkAttackDumpStreaming is BenchmarkAttackDump's dump run through the
// full streaming pipeline instead of the resident fast path: the same 2 MiB
// scrambled image is wrapped in a dumpfile container, opened through the
// lazy-CRC streaming reader, fed to the sharded campaign via a ReaderAt
// BlockSource (one shard, so the scan work is identical), and observed by a
// live obs.Collector. Comparing ns/op against BenchmarkAttackDump bounds the
// stage/tracer/source indirection overhead — the ISSUE budget is <2%.
func BenchmarkAttackDumpStreaming(b *testing.B) {
	plain := make([]byte, 2<<20)
	if err := workload.Fill(plain, 7, workload.LightSystem); err != nil {
		b.Fatal(err)
	}
	key := make([]byte, 32)
	rand.New(rand.NewSource(8)).Read(key)
	copy(plain[4096*64+128:], aes.ExpandKeyBytes(key))
	s := scramble.NewSkylakeDDR4(11)
	dump := make([]byte, len(plain))
	s.Scramble(dump, plain, 0)

	var container bytes.Buffer
	if err := dumpfile.Write(&container, dumpfile.Metadata{CPU: "bench"}, dump); err != nil {
		b.Fatal(err)
	}
	raw := container.Bytes()

	b.SetBytes(int64(len(dump)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := dumpfile.NewReader(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			b.Fatal(err)
		}
		src, err := core.ReaderAtSource(f, f.Size())
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.RunCampaignSource(context.Background(), src, core.CampaignConfig{
			Attack:      core.Config{Workers: runtime.NumCPU(), Tracer: obs.NewCollector()},
			ShardBlocks: len(dump) / core.BlockBytes, // one shard: same scan as Attack
			Parallel:    1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Keys) == 0 {
			b.Fatal("key not recovered")
		}
	}
}

// BenchmarkFigure2FreezeTransfer measures the physical phase: freeze a
// 1 MiB DIMM to -25C and decay it across a 5 s transfer.
func BenchmarkFigure2FreezeTransfer(b *testing.B) {
	spec := dram.DefaultDDR4Spec(1 << 20)
	data := make([]byte, spec.Geometry.Size())
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := dram.NewModule(spec, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		m.Write(0, data)
		b.StartTimer()
		m.SetTemperature(-25)
		m.PowerOff()
		m.Elapse(5 * time.Second)
	}
}

// BenchmarkFigure3 regenerates all five Figure 3 panels and their
// correlation statistics (original, DDR3, DDR3-reboot, DDR4, DDR4-reboot).
func BenchmarkFigure3(b *testing.B) {
	const width = 512
	plain := make([]byte, width*width)
	memimg.TestPattern(plain, width)
	b.SetBytes(int64(5 * len(plain)))
	for i := 0; i < b.N; i++ {
		d3a := scramble.NewDDR3(uint64(i) + 1)
		d3b := scramble.NewDDR3(uint64(i) + 2)
		d4a := scramble.NewSkylakeDDR4(uint64(i) + 1)
		d4b := scramble.NewSkylakeDDR4(uint64(i) + 2)
		buf := make([]byte, len(plain))
		stats := func(data []byte) memimg.CorrelationStats {
			im, err := memimg.New(data)
			if err != nil {
				b.Fatal(err)
			}
			return im.Correlations()
		}
		// 3a original; 3b DDR3; 3c DDR3 reboot; 3d DDR4; 3e DDR4 reboot.
		pa := stats(plain)
		d3a.Scramble(buf, plain, 0)
		pb := stats(buf)
		d3b.Descramble(buf, buf, 0)
		pc := stats(buf)
		d4a.Scramble(buf, plain, 0)
		pd := stats(buf)
		d4b.Descramble(buf, buf, 0)
		pe := stats(buf)
		// The paper's ordering: 3a most correlated, 3c shows one universal
		// key (maximum clusters), 3e shows none.
		if !(pa.CorrelatedFraction() >= pb.CorrelatedFraction() &&
			pb.CorrelatedFraction() > pd.CorrelatedFraction()) {
			b.Fatal("Figure 3 correlation ordering violated")
		}
		_, _ = pc, pe
	}
}

// BenchmarkKeyIdea1KeyMining measures scrambler-key mining over a loaded
// 1 MiB dump (the paper: all keys from <16 MB).
func BenchmarkKeyIdea1KeyMining(b *testing.B) {
	plain := make([]byte, 1<<20)
	if err := workload.Fill(plain, 1, workload.LoadedSystem); err != nil {
		b.Fatal(err)
	}
	s := scramble.NewSkylakeDDR4(99)
	dump := make([]byte, len(plain))
	s.Scramble(dump, plain, 0)
	b.SetBytes(int64(len(dump)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.MineKeys(context.Background(), dump, core.MineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Keys) == 0 {
			b.Fatal("no keys mined")
		}
	}
}

// BenchmarkSectionIIICDiskKeyRecovery runs the paper's headline attack end
// to end (victim + VeraCrypt + reboot capture + full pipeline + unlock).
func BenchmarkSectionIIICDiskKeyRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := Run(context.Background(), Scenario{Seed: int64(i) + 1, SameMachineReboot: true})
		if err != nil {
			b.Fatal(err)
		}
		if !out.VolumeUnlocked {
			b.Fatalf("attack failed at seed %d", i+1)
		}
	}
}

// BenchmarkSectionIIICScanThroughput measures the analysis scan rate on a
// scrambled dump, the figure the paper reports as 100 MB per 2 CPU-hours
// with AES-NI.
func BenchmarkSectionIIICScanThroughput(b *testing.B) {
	plain := make([]byte, 2<<20)
	workload.Fill(plain, 2, workload.LightSystem)
	key := make([]byte, 32)
	rand.New(rand.NewSource(3)).Read(key)
	copy(plain[4096*64+128:], aes.ExpandKeyBytes(key))
	s := scramble.NewSkylakeDDR4(7)
	dump := make([]byte, len(plain))
	s.Scramble(dump, plain, 0)
	b.SetBytes(int64(len(dump)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Attack(context.Background(), dump, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Keys) == 0 {
			b.Fatal("key not found")
		}
	}
}

// BenchmarkSectionIIIDRetention sweeps the §III-D retention measurement
// across the seven-module catalog.
func BenchmarkSectionIIIDRetention(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(4)).Read(data)
	for i := 0; i < b.N; i++ {
		for j, spec := range dram.ModuleCatalog {
			spec.Geometry = spec.Geometry.WithCapacity(1 << 20)
			m, err := dram.NewModule(spec, int64(i*7+j))
			if err != nil {
				b.Fatal(err)
			}
			m.Write(0, data)
			m.SetTemperature(-25)
			m.PowerOff()
			m.Elapse(5 * time.Second)
			if r := m.MeasureRetention(data); r < 0.90 || r > 0.999 {
				b.Fatalf("%s retention %f outside the paper's 90-99%%", spec.Model, r)
			}
		}
	}
}

// BenchmarkTableII regenerates the cipher-engine performance table.
func BenchmarkTableII(b *testing.B) {
	wantDelay := []float64{5.42, 7.08, 9.18, 13.27, 21.43}
	for i := 0; i < b.N; i++ {
		rows := engine.TableII()
		for j, s := range rows {
			d := s.MaxPipelineDelayNs()
			if d < wantDelay[j]-0.01 || d > wantDelay[j]+0.01 {
				b.Fatalf("%s delay %f, want %f", s.Name, d, wantDelay[j])
			}
		}
	}
}

// BenchmarkFigure5Overlap checks the keystream-overlap criterion (Figure 5)
// for every engine against every DDR4 speed grade.
func BenchmarkFigure5Overlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range engine.TableII() {
			for _, t := range []dram.Timing{dram.DDR4_2133, dram.DDR4_2400} {
				engine.ZeroExposedLatency(s, t)
			}
		}
	}
}

// BenchmarkFigure6 runs the utilization sweep for all five engines.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, s := range engine.TableII() {
			points := engine.UtilizationSweep(s, dram.DDR4_2400)
			if len(points) != engine.MaxBackToBackCAS {
				b.Fatal("sweep truncated")
			}
		}
	}
}

// BenchmarkFigure7 computes the power/area overhead bars.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := engine.Figure7()
		if len(rows) != 16 {
			b.Fatal("figure incomplete")
		}
	}
}
