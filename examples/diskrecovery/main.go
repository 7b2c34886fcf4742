// Diskrecovery is the paper's headline attack (§III-C) with every step
// spelled out against the substrate APIs, rather than through the
// high-level Scenario wrapper: build the victim, mount a VeraCrypt volume,
// freeze and transport the DIMM, dump it inside a second scrambled
// machine, mine the scrambler keys, hunt the AES schedules, and decrypt
// the disk.
//
//	go run ./examples/diskrecovery
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"coldboot/internal/core"
	"coldboot/internal/machine"
	"coldboot/internal/veracrypt"
	"coldboot/internal/workload"
)

func main() {
	// --- Victim setup -----------------------------------------------------
	cpu, _ := machine.CPUByName("i5-6400")
	victim, err := machine.New(machine.Config{
		CPU: cpu, DIMMBytes: 2 << 20, ScramblerOn: true, BIOSEntropy: 2024,
	})
	check(err)
	check(victim.Boot())
	fmt.Printf("victim: %s (%v, %v), scrambler seed %#x\n",
		cpu.Name, cpu.Arch, cpu.Memory, victim.LastSeed())

	// A running system: memory full of real content.
	mem := make([]byte, victim.MemSize())
	check(workload.Fill(mem, 99, workload.LightSystem))
	check(victim.Write(0, mem))

	// The user mounts an encrypted volume; the driver parks both XTS key
	// schedules in DRAM.
	salt := make([]byte, veracrypt.SaltSize)
	copy(salt, "an unremarkable salt")
	vol, err := veracrypt.Create([]byte("hunter2"), 128*veracrypt.SectorSize, salt, nil)
	check(err)
	const keysAddr = 0x137000 + 24
	mounted, err := vol.Mount([]byte("hunter2"), victim, keysAddr)
	check(err)
	secret := make([]byte, veracrypt.SectorSize)
	copy(secret, "quarterly financials: definitely not for attackers")
	check(mounted.WriteSector(17, secret))
	fmt.Printf("volume mounted; key schedules resident at %#x\n", keysAddr)

	// --- Physical attack ----------------------------------------------------
	fmt.Println("\nfreezing DIMM to -25C, pulling, fast 500ms transfer...")
	victim.FreezeDIMMs(-25)
	mods, err := victim.EjectDIMMs()
	check(err)
	before := mods[0].Snapshot()
	machine.Transfer(mods, 500*time.Millisecond)
	fmt.Printf("retention across transfer: %.3f%%\n", mods[0].MeasureRetention(before)*100)

	attacker, err := machine.New(machine.Config{
		CPU: cpu, DIMMBytes: 2 << 20, ScramblerOn: true, BIOSEntropy: 7777,
	})
	check(err)
	_, err = attacker.Controller().DetachDIMM(0)
	check(err)
	check(attacker.InsertDIMM(0, mods[0]))
	check(attacker.Boot())
	fmt.Printf("attacker machine booted (scrambler ON, seed %#x): dump is double-scrambled\n",
		attacker.LastSeed())
	dump, err := attacker.Dump()
	check(err)

	// --- Analysis ----------------------------------------------------------
	fmt.Println("\nstep 1: mining scrambler keys with the litmus test...")
	res, err := core.Attack(context.Background(), dump, core.Config{RepairFlips: 1})
	check(err)
	fmt.Printf("  %d keys mined from %d passing blocks (stride %d, coverage %.1f%%)\n",
		len(res.Mine.Keys), res.Mine.BlocksPassed, res.Stride, res.Coverage*100)
	fmt.Printf("step 2+3: AES key litmus scan over %d blocks (%d block/key pairs)\n",
		res.BlocksScanned, res.PairsTested)
	fmt.Printf("step 4: %d master keys recovered:\n", len(res.Keys))
	for _, k := range res.Keys {
		fmt.Printf("  %x  (schedule at %#x, verify score %.4f, %d anchors)\n",
			k.Master, k.TableStart, k.Score, k.Anchors)
	}

	// --- Endgame -------------------------------------------------------------
	unlocked, err := vol.MountWithRecoveredKeys(res.Masters(), nil, 0)
	if err != nil {
		log.Fatalf("FAILED to unlock the volume: %v", err)
	}
	buf := make([]byte, veracrypt.SectorSize)
	check(unlocked.ReadSector(17, buf))
	fmt.Printf("\nvolume unlocked without the password. sector 17 reads:\n  %q\n", buf[:52])
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
