// Quickstart: the smallest end-to-end cold boot attack.
//
// A Skylake DDR4 machine has a VeraCrypt volume mounted. We freeze its
// DIMM, pull it, seat it in a second (also scrambled!) Skylake machine,
// dump memory, run the attack, and unlock the volume without the password.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"coldboot"
)

func main() {
	out, err := coldboot.Run(context.Background(), coldboot.Scenario{
		CPU:          "i5-6600K",
		Password:     "correct horse battery staple",
		FreezeTempC:  -50, // inverted-canister spray (Halderman et al.)
		TransferTime: 2 * time.Second,
		RepairFlips:  1,
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Cold boot attack on Skylake DDR4 (quickstart) ===")
	fmt.Printf("victim scrambler seed:    %#016x\n", out.VictimSeed)
	fmt.Printf("attacker scrambler seed:  %#016x\n", out.AttackerSeed)
	fmt.Printf("bits surviving transfer:  %.3f%%\n", out.Retention*100)
	fmt.Printf("scrambler keys mined:     %d (stride %d, coverage %.1f%%)\n",
		out.MinedKeys, out.Stride, out.Coverage*100)
	fmt.Printf("AES masters recovered:    %d\n", len(out.RecoveredMasters))
	for i, m := range out.RecoveredMasters {
		fmt.Printf("  key %d: %x\n", i, m)
	}
	if !out.VolumeUnlocked {
		log.Fatal("attack failed: volume still locked")
	}
	fmt.Println("volume unlocked WITHOUT the password; secret sector reads:")
	fmt.Printf("  %q\n", out.SecretRecovered)
}
