package coldboot

import (
	"bytes"
	"context"
	"testing"
	"time"

	"coldboot/internal/core"
	"coldboot/internal/machine"
	"coldboot/internal/veracrypt"
	"coldboot/internal/workload"
)

// TestHeadlineAttack is the paper's §III-C result end to end: a frozen DDR4
// DIMM pulled from a Skylake machine with a mounted VeraCrypt volume,
// dumped in a second scrambled Skylake machine, yields the XTS master keys
// and unlocks the volume without the password.
func TestHeadlineAttack(t *testing.T) {
	out, err := Run(context.Background(), Scenario{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Retention < 0.95 {
		t.Errorf("retention %f unexpectedly low for -25C/2s", out.Retention)
	}
	if out.Stride != 4096 {
		t.Errorf("stride %d, want 4096", out.Stride)
	}
	if !out.VolumeUnlocked {
		t.Fatalf("volume not unlocked: %d masters recovered, coverage %f",
			len(out.RecoveredMasters), out.Coverage)
	}
	if string(out.SecretRecovered) != SecretPayload() {
		t.Errorf("secret sector wrong: %q", out.SecretRecovered)
	}
}

func TestSameMachineRebootAttack(t *testing.T) {
	// §III-B: certain motherboards allow rebooting into the dump directly.
	out, err := Run(context.Background(), Scenario{Seed: 2, SameMachineReboot: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Retention != 1.0 {
		t.Errorf("warm reboot retention = %f", out.Retention)
	}
	if !out.VolumeUnlocked {
		t.Fatal("same-machine attack failed")
	}
	if out.VictimSeed == out.AttackerSeed {
		t.Error("reboot did not reseed the scrambler")
	}
}

func TestAttackOnI5_6400(t *testing.T) {
	// The other Skylake system from Table I.
	out, err := Run(context.Background(), Scenario{Seed: 3, CPU: "i5-6400", SameMachineReboot: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.VolumeUnlocked {
		t.Fatal("attack failed on i5-6400")
	}
}

func TestDualChannelAttack(t *testing.T) {
	out, err := Run(context.Background(), Scenario{Seed: 4, Channels: 2, SameMachineReboot: true})
	if err != nil {
		t.Fatal(err)
	}
	// Dual-channel interleaving doubles the apparent key pool: the stride
	// inference must discover 2*4096.
	if out.Stride != 8192 {
		t.Errorf("dual-channel stride = %d, want 8192", out.Stride)
	}
	if !out.VolumeUnlocked {
		t.Fatal("dual-channel attack failed")
	}
}

func TestColdTransferWithDecayAttack(t *testing.T) {
	// The paper's own freeze conditions: -25C from an upright gas duster,
	// with a fast (sub-second) DIMM swap. Decay is measurable and the
	// repair machinery is exercised. (Success at these conditions is
	// stochastic at ~92% across seeds; this seed is deterministic.)
	out, err := Run(context.Background(), Scenario{Seed: 4, FreezeTempC: -25, TransferTime: 500 * time.Millisecond, RepairFlips: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Retention > 0.9999 {
		t.Errorf("expected measurable decay, retention = %f", out.Retention)
	}
	if !out.VolumeUnlocked {
		t.Fatalf("attack failed under decay (retention %f)", out.Retention)
	}
}

func TestDecaySuccessEnvelope(t *testing.T) {
	// Quantify "resilient to modest bit flips": at ~1.6% flipped bits
	// (-25C, 2s transfer) key mining still covers most address classes,
	// but no anchor window survives intact enough to yield exact master
	// keys — the attack's honest failure boundary.
	out, err := Run(context.Background(), Scenario{Seed: 5, FreezeTempC: -25, TransferTime: 2 * time.Second, RepairFlips: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Retention > 0.99 {
		t.Errorf("retention %f; the harsh-decay case is not harsh", out.Retention)
	}
	if out.VolumeUnlocked {
		t.Error("attack succeeded at ~1.6% decay; tolerances are implausibly generous")
	}
}

func TestWarmTransferDestroysData(t *testing.T) {
	// No freeze: at room temperature the bits rot during a slow transfer
	// and the attack collapses — the reason the paper's Figure 2 freeze
	// step exists.
	out, err := Run(context.Background(), Scenario{Seed: 6, FreezeTempC: 20, TransferTime: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if out.Retention > 0.8 {
		t.Errorf("warm retention = %f, expected heavy loss", out.Retention)
	}
	if out.VolumeUnlocked {
		t.Error("attack succeeded despite a warm 10s transfer; decay model too forgiving")
	}
}

func TestEncryptedMemoryDefeatsAttack(t *testing.T) {
	// Section IV's defense: the same attack against ChaCha8- or
	// AES-CTR-encrypted memory recovers nothing.
	for _, prot := range []MemoryProtection{EncryptedChaCha8, EncryptedAES128} {
		out, err := Run(context.Background(), Scenario{Seed: 7, Protection: prot, SameMachineReboot: true})
		if err != nil {
			t.Fatal(err)
		}
		if out.VolumeUnlocked || len(out.RecoveredMasters) != 0 {
			t.Errorf("protection %d: attack succeeded against encrypted memory", prot)
		}
	}
}

func TestGroundStateProfilingExtractsKeys(t *testing.T) {
	// The paper's alternative analysis technique (§III-A): instead of
	// filling memory with zeros via the FPGA, let the DRAM decay fully to
	// its ground state, profile that pattern with the scrambler off, then
	// boot scrambled and read the ground state back through the scrambler.
	// XORing the two dumps yields the keystream for every block — with no
	// mid-experiment decay worries, since ground state is the fixed point.
	cpu, _ := machine.CPUByName("i5-6600K")
	m, err := machine.New(machine.Config{CPU: cpu, DIMMBytes: 1 << 20, ScramblerOn: false, BIOSEntropy: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	m.PowerOff()
	m.Controller().DIMM(0).FullyDecay()

	// Profile pass: scrambler off.
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	profile, err := m.Dump()
	if err != nil {
		t.Fatal(err)
	}
	ground := make([]byte, m.MemSize())
	m.Controller().DIMM(0).GroundState(0, ground)
	if !bytes.Equal(profile, ground) {
		t.Fatal("profile dump is not the ground state")
	}

	// Scrambled pass: BIOS flips the knob, warm reboot preserves contents.
	m.Controller().SetScramblerEnabled(true)
	if err := m.Boot(); err != nil {
		t.Fatal(err)
	}
	view, err := m.Dump()
	if err != nil {
		t.Fatal(err)
	}

	// XOR of the passes is the keystream; every sampled block must match
	// the controller's true key and satisfy the litmus invariants.
	scr := m.Controller().Scrambler(0)
	for b := 0; b < len(view)/64; b += 97 {
		key := make([]byte, 64)
		for i := range key {
			key[i] = view[b*64+i] ^ profile[b*64+i]
		}
		loc := m.Controller().Mapping().Translate(uint64(b * 64))
		if !bytes.Equal(key, scr.KeyAt(loc.DeviceOff)) {
			t.Fatalf("block %d: extracted key differs from true keystream", b)
		}
		if !core.PassesKeyLitmus(key, 0) {
			t.Fatalf("block %d: extracted key fails litmus", b)
		}
	}
}

func TestCrossGenerationAttackFails(t *testing.T) {
	// The paper's attack model: "the attacker must use a CPU that is the
	// same generation as the one being attacked" — a SandyBridge dumping
	// machine maps addresses differently and the attack falls apart.
	out, err := Run(context.Background(), Scenario{Seed: 9, AttackerCPU: "i5-2540M"})
	if err != nil {
		t.Fatal(err)
	}
	if out.VolumeUnlocked {
		t.Error("cross-generation attack succeeded; address-map modeling broken")
	}
}

func TestUnmountDefeatsAttack(t *testing.T) {
	// §II-B's mitigation: unmounting erases the schedules; a machine
	// seized afterwards yields nothing. Built directly on the substrate
	// packages for precise control.
	cpu, _ := machine.CPUByName("i5-6600K")
	m, err := machine.New(machine.Config{CPU: cpu, DIMMBytes: 2 << 20, ScramblerOn: true, BIOSEntropy: 10})
	if err != nil {
		t.Fatal(err)
	}
	m.Boot()
	mem := make([]byte, m.MemSize())
	workload.Fill(mem, 11, workload.LightSystem)
	m.Write(0, mem)
	salt := make([]byte, veracrypt.SaltSize)
	vol, _ := veracrypt.Create([]byte("pw"), 32*veracrypt.SectorSize, salt, nil)
	mounted, err := vol.Mount([]byte("pw"), m, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := mounted.Unmount(); err != nil {
		t.Fatal(err)
	}
	m.Boot() // reseed + dump
	dump, _ := m.Dump()
	keys, err := AttackDump(context.Background(), dump, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Error("attack recovered keys after unmount")
	}
}

func TestScenarioUnknownCPU(t *testing.T) {
	if _, err := Run(context.Background(), Scenario{CPU: "i11-9999"}); err == nil {
		t.Error("unknown CPU accepted")
	}
	if _, err := Run(context.Background(), Scenario{AttackerCPU: "i11-9999"}); err == nil {
		t.Error("unknown attacker CPU accepted")
	}
}

func TestOutcomeGroundTruthMatches(t *testing.T) {
	out, err := Run(context.Background(), Scenario{Seed: 12, SameMachineReboot: true})
	if err != nil {
		t.Fatal(err)
	}
	// The recovered masters must include both halves of the true XTS key.
	foundHalves := 0
	for _, m := range out.RecoveredMasters {
		if bytes.Equal(m, out.TrueMasters[:32]) || bytes.Equal(m, out.TrueMasters[32:]) {
			foundHalves++
		}
	}
	if foundHalves < 2 {
		t.Errorf("recovered %d true key halves, want 2", foundHalves)
	}
}

func TestDDR3BaselineAttack(t *testing.T) {
	// The prior-art DDR3 attack end to end on a SandyBridge machine:
	// 16-key frequency analysis, the schedule hunt under those keys, unlock.
	out, err := Run(context.Background(), Scenario{Seed: 20, CPU: "i5-2540M", SameMachineReboot: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.MinedKeys != 16 {
		t.Errorf("DDR3 attack mined %d keys, want 16", out.MinedKeys)
	}
	if !out.VolumeUnlocked {
		t.Fatal("DDR3 baseline attack failed")
	}
}

func TestDDR3AttackWithDIMMTransfer(t *testing.T) {
	out, err := Run(context.Background(), Scenario{Seed: 21, CPU: "i5-2430M", FreezeTempC: -50, TransferTime: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// The hunt's decay tolerance absorbs light decay.
	if !out.VolumeUnlocked {
		t.Fatalf("DDR3 transfer attack failed (retention %f)", out.Retention)
	}
}

func TestIvyBridgeAttack(t *testing.T) {
	// The third Table I generation.
	out, err := Run(context.Background(), Scenario{Seed: 22, CPU: "i7-3540M", SameMachineReboot: true})
	if err != nil {
		t.Fatal(err)
	}
	if !out.VolumeUnlocked {
		t.Fatal("IvyBridge DDR3 attack failed")
	}
}

func TestSeedReuseBIOSTrivialAttack(t *testing.T) {
	// §III-B observation 2: some vendor BIOSes reuse the scrambler seed.
	// A reboot then reads the old memory back descrambled: its zero blocks
	// mine as the all-zero key, and the hunt over that key is the classic
	// Halderman scan, with no scrambler analysis at all.
	out, err := Run(context.Background(), Scenario{Seed: 30, SeedReuseBIOS: true, SameMachineReboot: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.VictimSeed != out.AttackerSeed {
		t.Fatal("seed-reuse BIOS changed its seed")
	}
	if out.MinedKeys < 1 {
		t.Fatal("no key mined from the self-descrambled dump")
	}
	if !out.VolumeUnlocked {
		t.Fatal("trivial seed-reuse attack failed")
	}
}

func TestNVDIMMNeedsNoFreezing(t *testing.T) {
	// §III-D/V: non-volatile DIMMs keep their contents across power loss
	// with NO cooling — a warm ten-minute transfer loses nothing and the
	// attack proceeds as if the machine never lost power.
	out, err := Run(context.Background(), Scenario{Seed: 31, NVDIMM: true, FreezeTempC: 20, TransferTime: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if out.Retention != 1.0 {
		t.Errorf("NVDIMM retention = %f, want 1.0", out.Retention)
	}
	if !out.VolumeUnlocked {
		t.Fatal("NVDIMM attack failed")
	}
}

func TestNVDIMMPlusEncryptionIsSafe(t *testing.T) {
	// The paper's closing argument: NVDIMMs make encryption "even more
	// crucial" — and it works there too.
	out, err := Run(context.Background(), Scenario{Seed: 32, NVDIMM: true, Protection: EncryptedChaCha8,
		FreezeTempC: 20, TransferTime: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if out.VolumeUnlocked {
		t.Error("attack beat encrypted NVDIMM memory")
	}
}

func TestCPURegisterKeysDefeatAttack(t *testing.T) {
	// §II-B: TRESOR/Loop-Amnesia keep keys out of DRAM entirely; a cold
	// boot dump contains nothing to find.
	out, err := Run(context.Background(), Scenario{Seed: 33, KeysInCPURegisters: true, SameMachineReboot: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.VolumeUnlocked || len(out.RecoveredMasters) != 0 {
		t.Errorf("attack recovered %d keys despite register-only storage", len(out.RecoveredMasters))
	}
}

func TestScramblerOffZeroKeyHuntWins(t *testing.T) {
	// With scrambling disabled (the pre-DDR3 world of the 2008 paper) the
	// dump is plaintext: its zero blocks mine as the all-zero key, and the
	// core hunt over that key recovers the keys directly.
	out, err := Run(context.Background(), Scenario{Seed: 34, Protection: ScramblerOff, SameMachineReboot: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.MinedKeys < 1 {
		t.Fatal("no key mined from the unscrambled dump")
	}
	if !out.VolumeUnlocked {
		t.Fatal("zero-key hunt failed on unscrambled dump")
	}
}

func TestCaptureAnalyzeSeparation(t *testing.T) {
	// The offline workflow: Capture produces the raw double-scrambled dump
	// (no analysis), AttackDump recovers the keys from it later.
	dump, out, err := Capture(Scenario{Seed: 50, SameMachineReboot: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.RecoveredMasters) != 0 || out.VolumeUnlocked {
		t.Error("Capture performed analysis")
	}
	if len(dump) != 2<<20 {
		t.Errorf("dump size %d", len(dump))
	}
	keys, err := AttackDump(context.Background(), dump, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, k := range keys {
		found[string(k)] = true
	}
	if !found[string(out.TrueMasters[:32])] || !found[string(out.TrueMasters[32:])] {
		t.Error("offline analysis did not recover the true masters")
	}
}

func TestColdBootDefeatsHiddenVolumeDeniability(t *testing.T) {
	// Full-stack version of the hidden-volume finding: a user has a
	// TrueCrypt-style hidden volume mounted when the machine is seized.
	// The cold boot attack recovers the hidden volume's master keys from
	// the scrambled dump and locates the deniable region — the existence
	// of the hidden data is no longer deniable.
	cpu, _ := machine.CPUByName("i5-6600K")
	m, err := machine.New(machine.Config{CPU: cpu, DIMMBytes: 2 << 20, ScramblerOn: true, BIOSEntropy: 60})
	if err != nil {
		t.Fatal(err)
	}
	m.Boot()
	mem := make([]byte, m.MemSize())
	workload.Fill(mem, 61, workload.LightSystem)
	m.Write(0, mem)

	salt := make([]byte, veracrypt.SaltSize)
	copy(salt, "deniability test salt")
	vol, err := veracrypt.CreateHidden([]byte("decoy-password"), []byte("real-password"),
		128*veracrypt.SectorSize, 32*veracrypt.SectorSize, salt)
	if err != nil {
		t.Fatal(err)
	}
	hidden, err := vol.MountHidden([]byte("real-password"), m, 1<<20+512)
	if err != nil {
		t.Fatal(err)
	}
	secret := make([]byte, veracrypt.SectorSize)
	copy(secret, "deniable secrets, recovered via cold boot")
	hidden.WriteSector(2, secret)

	m.Boot() // reseed; scrambled dump
	dump, err := m.Dump()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := AttackDump(context.Background(), dump, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := vol.MountWithRecoveredKeys(keys, nil, 0)
	if err != nil {
		t.Fatalf("hidden volume not unlocked from dump: %v", err)
	}
	if recovered.Sectors() != 32 {
		t.Errorf("recovered region %d sectors; want the hidden 32", recovered.Sectors())
	}
	got := make([]byte, veracrypt.SectorSize)
	recovered.ReadSector(2, got)
	if !bytes.Equal(got, secret) {
		t.Error("hidden secret not recovered")
	}
}

func TestGroundProfileExtendsDecayEnvelope(t *testing.T) {
	// §III-A profiling at system level: at -25C with a 1s transfer the
	// blind attack is marginal (see the probe data in EXPERIMENTS.md);
	// with the ground-state profile the asymmetric-decay repair gets the
	// same seed through.
	out, err := Run(context.Background(), Scenario{Seed: 1, FreezeTempC: -25, TransferTime: time.Second,
		RepairFlips: 1, GroundProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.GroundDump == nil {
		t.Fatal("no ground profile captured")
	}
	if !out.VolumeUnlocked {
		t.Fatalf("attack with ground profile failed (retention %f)", out.Retention)
	}
}
