// Command coldboot runs the end-to-end cold boot attack simulation with
// configurable physical and machine parameters.
//
// Usage:
//
//	coldboot [-cpu i5-6600K] [-channels 1] [-mem 2097152]
//	         [-freeze -25] [-transfer 2s] [-reboot] [-protection stock]
//	         [-seed 1] [-repair 1]
//	         [-timeout 30s] [-progress] [-trace out.json]
//	         [-trace-chrome trace.json] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The analysis pipeline is observable and cancellable: -timeout bounds the
// whole run, -progress prints live stage progress to stderr, -trace
// writes per-stage wall time plus candidate counters as JSON, and
// -trace-chrome writes the full span tree as Chrome Trace Event JSON
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// -cpuprofile/-memprofile record pprof profiles of the run.
//
// -analyze exits with scripting-friendly codes: 0 when at least one master
// key was recovered, 3 when a clean run found no keys, and 1 on errors
// (bad container, checksum mismatch, or an interrupted run that had not
// yet recovered a key).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"coldboot"
	"coldboot/internal/core"
	"coldboot/internal/dumpfile"
	"coldboot/internal/format"
	"coldboot/internal/machine"
	"coldboot/internal/obs"
	"coldboot/internal/profiles"

	// Register every target-format scanner so -formats can name them.
	_ "coldboot/internal/format/all"
)

func main() {
	cpu := flag.String("cpu", "i5-6600K", "victim CPU model (see -list)")
	attackerCPU := flag.String("attacker-cpu", "", "attacker CPU model (default: same as victim)")
	channels := flag.Int("channels", 1, "memory channels (1 or 2)")
	mem := flag.Int("mem", 2<<20, "DIMM bytes per channel")
	freeze := flag.Float64("freeze", -50, "DIMM temperature during transfer (C); -25 needs a sub-second transfer")
	transfer := flag.Duration("transfer", 2*time.Second, "DIMM transfer duration")
	reboot := flag.Bool("reboot", false, "same-machine reboot instead of DIMM transfer")
	protection := flag.String("protection", "stock", "victim memory protection: stock | off | chacha8 | aes128")
	seed := flag.Int64("seed", 1, "experiment seed")
	repair := flag.Int("repair", 1, "decay window repair: 0 off, 1 single-bit flips")
	list := flag.Bool("list", false, "list Table I CPU models and exit")
	captureTo := flag.String("capture", "", "capture the dump to this file instead of attacking")
	analyzeFrom := flag.String("analyze", "", "attack a previously captured dump file (streamed, not loaded whole)")
	formats := flag.String("formats", "", "comma-separated target formats to hunt (default all; see -list-formats)")
	listFormats := flag.Bool("list-formats", false, "list registered target formats and exit")
	timeout := flag.Duration("timeout", 0, "abort the attack after this long (0 = no limit); partial results are reported")
	progress := flag.Bool("progress", false, "print live attack progress to stderr")
	traceOut := flag.String("trace", "", "write per-stage wall time and candidate counters as JSON to this file")
	chromeOut := flag.String("trace-chrome", "", "write the span tree as Chrome Trace Event JSON to this file (open in Perfetto or chrome://tracing)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()

	if *list {
		fmt.Println("CPU models (paper Table I):")
		for _, c := range machine.TableI {
			fmt.Printf("  %-10s %-12s %-5v launched %s\n", c.Name, c.Arch, c.Memory, c.Launched)
		}
		return
	}
	if *listFormats {
		fmt.Println("target formats:")
		for _, n := range core.KnownFormats() {
			fmt.Printf("  %s\n", n)
		}
		return
	}
	formatList := format.ParseSpec(*formats)

	var prot coldboot.MemoryProtection
	switch *protection {
	case "stock":
		prot = coldboot.StockScrambler
	case "off":
		prot = coldboot.ScramblerOff
	case "chacha8":
		prot = coldboot.EncryptedChaCha8
	case "aes128":
		prot = coldboot.EncryptedAES128
	default:
		fmt.Fprintf(os.Stderr, "unknown protection %q\n", *protection)
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	prof, err := profiles.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles(prof)
	collector, tracer := buildTracer(*traceOut != "" || *chromeOut != "", *progress)
	defer writeTrace(collector, *traceOut)
	defer writeChromeTrace(collector, *chromeOut)

	if *analyzeFrom != "" {
		// Scripting contract (see README): 0 = keys recovered, 3 = clean
		// run but no keys, 1 = errors. The traces and profiles are written
		// before exiting (os.Exit skips deferred calls).
		code := analyzeFile(ctx, *analyzeFrom, *repair, formatList, tracer)
		writeTrace(collector, *traceOut)
		writeChromeTrace(collector, *chromeOut)
		stopProfiles(prof)
		os.Exit(code)
	}

	scenario := coldboot.Scenario{
		CPU:               *cpu,
		AttackerCPU:       *attackerCPU,
		Channels:          *channels,
		MemoryBytes:       *mem,
		FreezeTempC:       *freeze,
		TransferTime:      *transfer,
		SameMachineReboot: *reboot,
		Protection:        prot,
		Seed:              *seed,
		RepairFlips:       *repair,
		Formats:           formatList,
		Tracer:            tracer,
	}

	if *captureTo != "" {
		captureFile(scenario, *captureTo)
		return
	}

	out, err := coldboot.Run(ctx, scenario)
	if err != nil {
		if out == nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "attack interrupted (%v); reporting partial results\n", err)
	}

	fmt.Printf("victim seed      %#016x\n", out.VictimSeed)
	fmt.Printf("attacker seed    %#016x\n", out.AttackerSeed)
	fmt.Printf("retention        %.4f\n", out.Retention)
	fmt.Printf("mined keys       %d (stride %d, coverage %.1f%%)\n", out.MinedKeys, out.Stride, out.Coverage*100)
	fmt.Printf("masters found    %d\n", len(out.RecoveredMasters))
	for i, m := range out.RecoveredMasters {
		fmt.Printf("  [%d] %x\n", i, m)
	}
	if out.VolumeUnlocked {
		fmt.Printf("volume UNLOCKED; secret: %q\n", out.SecretRecovered)
	} else {
		fmt.Println("volume still locked — attack failed")
		writeTrace(collector, *traceOut)
		writeChromeTrace(collector, *chromeOut)
		stopProfiles(prof)
		os.Exit(1)
	}
}

// stopProfiles flushes the pprof session; Stop is idempotent, so the
// deferred call after an explicit pre-os.Exit call is harmless.
func stopProfiles(s *profiles.Session) {
	if err := s.Stop(); err != nil {
		log.Printf("profile: %v", err)
	}
}

// buildTracer assembles the observability hooks the flags ask for: a
// Collector when tracing, a stderr progress printer when -progress.
func buildTracer(trace, progress bool) (*obs.Collector, obs.Tracer) {
	var collector *obs.Collector
	var tracers []obs.Tracer
	if trace {
		collector = obs.NewCollector()
		tracers = append(tracers, collector)
	}
	if progress {
		tracers = append(tracers, progressPrinter())
	}
	return collector, obs.Multi(tracers...)
}

// progressPrinter logs stage transitions and throttled progress ticks.
func progressPrinter() obs.Tracer {
	var lastPct int64 = -1
	return &obs.Funcs{
		OnStageStart: func(name string) {
			fmt.Fprintf(os.Stderr, "[stage] %s...\n", name)
		},
		OnStageEnd: func(name string, wall time.Duration) {
			fmt.Fprintf(os.Stderr, "[stage] %s done in %v\n", name, wall.Round(time.Microsecond))
		},
		OnProgress: func(stage string, done, total int64) {
			if total <= 0 {
				return
			}
			if pct := done * 100 / total; pct != lastPct {
				lastPct = pct
				fmt.Fprintf(os.Stderr, "[%s] %d%% (%d/%d blocks)\n", stage, pct, done, total)
			}
		},
	}
}

// writeTrace dumps the collected stage report; safe to call with nil
// collector or empty path, and idempotent enough for the deferred +
// early-exit double call (the second write just repeats the report).
func writeTrace(c *obs.Collector, path string) {
	if c == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Printf("trace: %v", err)
		return
	}
	if err := c.WriteJSON(f); err != nil {
		log.Printf("trace: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Printf("trace: %v", err)
	}
}

// writeChromeTrace dumps the collected span tree as Chrome Trace Event
// JSON; like writeTrace it is nil/empty-safe and idempotent under the
// deferred + early-exit double call.
func writeChromeTrace(c *obs.Collector, path string) {
	if c == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Printf("trace-chrome: %v", err)
		return
	}
	if err := c.WriteChromeTrace(f); err != nil {
		log.Printf("trace-chrome: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Printf("trace-chrome: %v", err)
	}
}

// captureFile runs only the acquisition half and saves the dump container.
func captureFile(s coldboot.Scenario, path string) {
	dump, out, err := coldboot.Capture(s)
	if err != nil {
		log.Fatal(err)
	}
	meta := dumpfile.Metadata{
		CPU:             s.AttackerCPU,
		Channels:        s.Channels,
		ScramblerOn:     true,
		FreezeTempC:     s.FreezeTempC,
		TransferSeconds: s.TransferTime.Seconds(),
		Notes:           fmt.Sprintf("victim seed %#x, attacker seed %#x", out.VictimSeed, out.AttackerSeed),
	}
	if meta.CPU == "" {
		meta.CPU = s.CPU
	}
	if err := dumpfile.WriteFile(path, meta, dump); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %d bytes (retention %.4f) to %s\n", len(dump), out.Retention, path)
}

// analyzeFile streams a dump container through the sharded attack campaign
// without loading the image whole: the container header is parsed eagerly,
// the CRC is verified in one streaming pass, and the campaign reads one
// mining window / one shard at a time.
//
// The returned exit code follows the scripting contract: 0 when at least
// one master key was recovered (even from an interrupted run), 3 for a
// clean run that found no keys, 1 for errors (including a run interrupted
// before any key surfaced).
func analyzeFile(ctx context.Context, path string, repair int, formats []string, tracer obs.Tracer) int {
	f, err := dumpfile.Open(path)
	if err != nil {
		log.Print(err)
		return 1
	}
	defer f.Close()
	meta := f.Meta()
	fmt.Printf("loaded %d bytes captured on %s (%d ch, frozen to %.0fC, %.1fs transfer)\n",
		f.Size(), meta.CPU, meta.Channels, meta.FreezeTempC, meta.TransferSeconds)
	if err := f.VerifyChecksum(); err != nil {
		log.Print(err)
		return 1
	}
	src, err := core.ReaderAtSource(f, f.Size())
	if err != nil {
		log.Print(err)
		return 1
	}
	res, runErr := core.RunCampaignSource(ctx, src, core.CampaignConfig{
		Attack: core.Config{RepairFlips: repair, Formats: formats, Tracer: tracer},
	})
	if runErr != nil {
		if res == nil {
			log.Print(runErr)
			return 1
		}
		fmt.Fprintf(os.Stderr, "attack interrupted (%v); reporting partial results\n", runErr)
	}
	for _, v := range res.Volumes {
		fmt.Printf("volume header  %s at %#x (uuid %s)\n", v.Format, v.Offset, v.UUID)
	}
	if len(res.Keys) == 0 {
		fmt.Println("no master keys recovered")
		if runErr != nil {
			return 1
		}
		return 3
	}
	fmt.Printf("%d master keys recovered:\n", len(res.Keys))
	for i, k := range res.Keys {
		tag := k.Format
		if k.Volume != "" {
			tag += " " + k.Volume
		}
		fmt.Printf("  [%d] %x (%s, score %.3f, table at %#x)\n", i, k.Master, tag, k.Score, k.TableStart)
	}
	return 0
}
