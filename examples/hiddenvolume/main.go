// Hiddenvolume demonstrates a consequence of the attack the paper implies
// but does not spell out: cold boot key recovery defeats TrueCrypt-style
// plausible deniability. A hidden volume's header slot is indistinguishable
// from the random filler every ordinary volume carries — but if the hidden
// volume is MOUNTED when the machine is seized, its XTS master keys are in
// DRAM like any other volume's, and the recovered keys locate the deniable
// region by superblock probing, no password required.
//
//	go run ./examples/hiddenvolume
package main

import (
	"context"
	"fmt"
	"log"

	"coldboot"
	"coldboot/internal/machine"
	"coldboot/internal/veracrypt"
	"coldboot/internal/workload"
)

func main() {
	cpu, _ := machine.CPUByName("i5-6600K")
	m, err := machine.New(machine.Config{CPU: cpu, DIMMBytes: 2 << 20, ScramblerOn: true, BIOSEntropy: 7})
	check(err)
	check(m.Boot())
	mem := make([]byte, m.MemSize())
	check(workload.Fill(mem, 8, workload.LightSystem))
	check(m.Write(0, mem))

	// A 128-sector outer volume with a 32-sector hidden volume in its tail.
	salt := make([]byte, veracrypt.SaltSize)
	copy(salt, "hidden volume demo")
	vol, err := veracrypt.CreateHidden([]byte("decoy-password"), []byte("real-password"),
		128*veracrypt.SectorSize, 32*veracrypt.SectorSize, salt)
	check(err)
	fmt.Println("volume created: outer 128 sectors, hidden 32 sectors in the free space")

	// The user works in the HIDDEN volume when the machine is seized.
	hidden, err := vol.MountHidden([]byte("real-password"), m, 1<<20+256)
	check(err)
	secret := make([]byte, veracrypt.SectorSize)
	copy(secret, "the deniable ledger: it was never supposed to provably exist")
	check(hidden.WriteSector(4, secret))
	fmt.Println("hidden volume mounted; its key schedules now live in DRAM")

	// Cold boot: reboot into a dump (the quick §III-B capture).
	check(m.Boot())
	dump, err := m.Dump()
	check(err)
	keys, err := coldboot.AttackDump(context.Background(), dump, 0, nil)
	check(err)
	fmt.Printf("attack recovered %d master key halves from the scrambled dump\n", len(keys))

	// The recovered keys unlock the volume — and identify WHICH region
	// they unlock, destroying deniability.
	mounted, err := vol.MountWithRecoveredKeys(keys, nil, 0)
	if err != nil {
		log.Fatalf("deniability held: %v", err)
	}
	fmt.Printf("recovered keys map a %d-sector region — the HIDDEN volume\n", mounted.Sectors())
	got := make([]byte, veracrypt.SectorSize)
	check(mounted.ReadSector(4, got))
	fmt.Printf("hidden sector 4 reads: %q\n", got[:61])
	fmt.Println("\nconclusion: deniability is a property of the disk format;")
	fmt.Println("cold boot attacks read the RAM, where nothing is deniable.")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
