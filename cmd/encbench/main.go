// Command encbench regenerates the paper's defense-half evaluation:
// Table II (cipher engine performance), Figure 6 (decryption latency vs
// bandwidth utilization), and Figure 7 (power and area overhead).
//
// Usage:
//
//	encbench -table2
//	encbench -figure6
//	encbench -figure7
//	encbench -traffic
//	encbench -all
//
// The attack's hot-path benchmarks are plain `go test` benchmarks;
// `make bench-guard` gates them.
package main

import (
	"flag"
	"fmt"
	"os"

	"coldboot/internal/dram"
	"coldboot/internal/engine"
	"coldboot/internal/memsim"
)

func main() {
	table2 := flag.Bool("table2", false, "print Table II")
	figure6 := flag.Bool("figure6", false, "print the Figure 6 series")
	figure7 := flag.Bool("figure7", false, "print the Figure 7 overheads")
	traffic := flag.Bool("traffic", false, "print the command-level traffic cross-validation")
	all := flag.Bool("all", false, "print everything")
	flag.Parse()
	if *all {
		*table2, *figure6, *figure7, *traffic = true, true, true, true
	}
	if !*table2 && !*figure6 && !*figure7 && !*traffic {
		flag.Usage()
		os.Exit(2)
	}
	if *table2 {
		printTable2()
	}
	if *figure6 {
		printFigure6()
	}
	if *figure7 {
		printFigure7()
	}
	if *traffic {
		printTraffic()
	}
}

// printTraffic cross-validates Figure 6 constructively: the command-level
// DDR4 simulator runs each engine against generated traffic patterns.
func printTraffic() {
	fmt.Println("Command-level cross-validation (internal/memsim, DDR4-2400, 16 banks)")
	fmt.Printf("%-10s %-18s %10s %10s %12s %12s\n",
		"engine", "traffic", "rowhit", "util", "max exposed", "avg latency")
	t := dram.DDR4_2400
	traffics := []struct {
		name string
		reqs []memsim.Request
	}{
		{"stream@100%", memsim.StreamTraffic(5000, t, 1)},
		{"stream@80%", memsim.StreamTraffic(5000, t, 0.8)},
		{"random", memsim.RandomTraffic(5000, t, 16, 4096, 0.25, 1)},
		{"mixed70/30", memsim.MixedTraffic(5000, t, 0.7, 2)},
	}
	engines := []*engine.Spec{nil}
	for _, s := range engine.TableII() {
		spec := s
		engines = append(engines, &spec)
	}
	for _, e := range engines {
		name := "(plain)"
		if e != nil {
			name = e.Name
		}
		for _, tr := range traffics {
			p := memsim.DefaultParams()
			p.Engine = e
			sim, err := memsim.New(p)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			stats := sim.Run(tr.reqs)
			fmt.Printf("%-10s %-18s %9.1f%% %9.1f%% %9.2f ns %9.2f ns\n",
				name, tr.name, stats.RowHitRate*100, stats.Utilization*100,
				stats.MaxExposed, stats.AvgReadLatency)
		}
	}
	fmt.Println()
}

func printTable2() {
	fmt.Println("Table II: cipher engine performance (45nm)")
	fmt.Printf("%-10s %16s %12s %24s\n", "Cipher", "Max Freq (GHz)", "Cycles/64B", "Max Pipeline Delay (ns)")
	for _, s := range engine.TableII() {
		fmt.Printf("%-10s %16.2f %12d %24.2f\n",
			s.Name, s.FreqGHz, s.CyclesPer64B, s.MaxPipelineDelayNs())
	}
	fmt.Println()
}

func printFigure6() {
	t := dram.DDR4_2400
	fmt.Printf("Figure 6: worst-case decryption latency (ns) vs bandwidth utilization, %s\n", t.Name)
	fmt.Printf("(CAS latency window: %.2f ns; max back-to-back CAS: %d)\n\n", t.CASLatency, engine.MaxBackToBackCAS)
	specs := engine.TableII()
	fmt.Printf("%6s %6s", "util%", "outst")
	for _, s := range specs {
		fmt.Printf(" %9s", s.Name)
	}
	fmt.Println()
	sweeps := make([][]engine.LatencyPoint, len(specs))
	for i, s := range specs {
		sweeps[i] = engine.UtilizationSweep(s, t)
	}
	for row := range sweeps[0] {
		p0 := sweeps[0][row]
		fmt.Printf("%6.0f %6d", p0.Utilization*100, p0.Outstanding)
		for i := range specs {
			fmt.Printf(" %9.2f", sweeps[i][row].LatencyNs)
		}
		fmt.Println()
	}
	fmt.Println("\nworst-case exposed latency beyond the DRAM access itself (ns):")
	for i, s := range specs {
		last := sweeps[i][len(sweeps[i])-1]
		fmt.Printf("  %-10s %.2f  (zero exposed at all loads: %v)\n",
			s.Name, last.ExposedNs, engine.ZeroExposedLatency(s, t))
	}
	fmt.Println()
}

func printFigure7() {
	fmt.Println("Figure 7: power and area overhead of per-channel cipher engines (45nm)")
	fmt.Printf("%-14s %-9s %6s %10s %10s\n", "platform", "engine", "util", "area %", "power %")
	for _, o := range engine.Figure7() {
		fmt.Printf("%-14s %-9s %5.0f%% %9.2f%% %9.2f%%\n",
			o.Platform.Name, o.Engine.Name, o.Utilization*100, o.AreaPct, o.PowerPct)
	}
	fmt.Println()
}
