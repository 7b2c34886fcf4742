package coldboot_test

import (
	"context"
	"fmt"
	"time"

	"coldboot"
)

// Example runs the paper's headline attack end to end: freeze the victim's
// DIMM, move it to a second (still scrambled) machine, dump, mine the
// scrambler keys, recover the XTS-AES-256 masters, unlock the volume.
func Example() {
	out, err := coldboot.Run(context.Background(), coldboot.Scenario{
		CPU:          "i5-6600K",
		FreezeTempC:  -50,
		TransferTime: 2 * time.Second,
		RepairFlips:  1,
		Seed:         1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("stride:", out.Stride)
	fmt.Println("unlocked:", out.VolumeUnlocked)
	fmt.Println("secret:", string(out.SecretRecovered))
	// Output:
	// stride: 4096
	// unlocked: true
	// secret: TOP-SECRET: the cold boot attack recovered this sector.
}

// ExampleRun_defense shows the Section IV defense: the same attack against
// ChaCha8-encrypted memory recovers nothing.
func ExampleRun_defense() {
	out, err := coldboot.Run(context.Background(), coldboot.Scenario{
		Seed:              2,
		Protection:        coldboot.EncryptedChaCha8,
		SameMachineReboot: true,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("keys recovered:", len(out.RecoveredMasters))
	fmt.Println("unlocked:", out.VolumeUnlocked)
	// Output:
	// keys recovered: 0
	// unlocked: false
}

// ExampleCapture demonstrates the offline workflow: acquire now, attack
// later (or elsewhere).
func ExampleCapture() {
	dump, out, err := coldboot.Capture(coldboot.Scenario{Seed: 3, SameMachineReboot: true})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("dump bytes:", len(dump))
	keys, err := coldboot.AttackDump(context.Background(), dump, 0, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("masters recovered:", len(keys))
	_ = out
	// Output:
	// dump bytes: 2097152
	// masters recovered: 2
}
