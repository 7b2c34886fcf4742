// Encryptedram demonstrates the paper's Section IV defense: replace the
// memory scrambler with a strong stream cipher engine (ChaCha8 or AES-CTR),
// verify that the cold boot attack collapses, and print the latency /
// power / area analysis showing the replacement is free.
//
//	go run ./examples/encryptedram
package main

import (
	"context"
	"fmt"
	"log"

	"coldboot"
	"coldboot/internal/aes"
	"coldboot/internal/chacha"
	"coldboot/internal/dram"
	"coldboot/internal/engine"
)

func main() {
	fmt.Println("=== Part 1: the attack vs encrypted memory ===")
	for _, p := range []struct {
		name string
		prot coldboot.MemoryProtection
	}{
		{"stock Skylake scrambler", coldboot.StockScrambler},
		{"ChaCha8 encrypted memory", coldboot.EncryptedChaCha8},
		{"AES-128 CTR encrypted memory", coldboot.EncryptedAES128},
	} {
		out, err := coldboot.Run(context.Background(), coldboot.Scenario{
			Seed: 3, Protection: p.prot, SameMachineReboot: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "volume UNLOCKED — attack succeeded"
		if !out.VolumeUnlocked {
			verdict = "attack DEFEATED"
		}
		fmt.Printf("%-30s mined keys: %5d   %s\n", p.name+":", out.MinedKeys, verdict)
	}

	fmt.Println("\n=== Part 2: why encryption is free (Table II + Figure 6) ===")
	t := dram.DDR4_2400
	fmt.Printf("DDR4 column access window: %.2f ns (JESD79-4 minimum)\n\n", t.CASLatency)
	fmt.Printf("%-10s %8s %12s %16s %14s\n", "cipher", "GHz", "cycles/64B", "pipeline (ns)", "zero exposed?")
	for _, spec := range engine.TableII() {
		fmt.Printf("%-10s %8.2f %12d %16.2f %14v\n",
			spec.Name, spec.FreqGHz, spec.CyclesPer64B,
			spec.MaxPipelineDelayNs(), engine.ZeroExposedLatency(spec, t))
	}

	fmt.Println("\nworst-case decryption latency vs outstanding requests (Figure 6):")
	aes128 := engine.AESEngine(aes.AES128)
	chacha8 := engine.ChaChaEngine(chacha.Rounds8)
	fmt.Printf("%12s %12s %12s\n", "outstanding", aes128.Name, chacha8.Name)
	for _, n := range []int{1, 6, 12, 18} {
		a := engine.SimulateBurst(aes128, t, n)
		c := engine.SimulateBurst(chacha8, t, n)
		fmt.Printf("%12d %9.2f ns %9.2f ns\n", n, a.MaxLatency, c.MaxLatency)
	}

	fmt.Println("\npower/area overheads (Figure 7):")
	for _, o := range engine.Figure7() {
		if o.Utilization != 1.0 || o.Engine.Name != "ChaCha8" {
			continue
		}
		fmt.Printf("  %-14s area +%.2f%%  power +%.2f%% (full load)\n",
			o.Platform.Name, o.AreaPct, o.PowerPct)
	}
	fmt.Println("\nconclusion: ChaCha8 hides entirely under the DRAM access —")
	fmt.Println("strongly encrypted DRAM with zero exposed latency (Key Idea 2).")
}
