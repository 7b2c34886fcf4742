// Package coldboot reproduces "Cold Boot Attacks are Still Hot: Security
// Analysis of Memory Scramblers in Modern Processors" (HPCA 2017) as a
// simulation library.
//
// The package is organized in three layers:
//
//   - Substrates (internal/dram, internal/addrmap, internal/scramble,
//     internal/memctrl, internal/machine, internal/aes, internal/chacha,
//     internal/sha512, internal/veracrypt, internal/workload): a software
//     model of the machines the paper attacked — DRAM with
//     temperature-dependent charge decay, per-generation memory-controller
//     scramblers (DDR3's 16-key pool, Skylake DDR4's 4096-key pool with the
//     published byte-pair invariants), and a VeraCrypt-style XTS-AES-256
//     disk volume whose mount leaves expanded round keys in simulated RAM.
//
//   - The attack (internal/core): scrambler-key mining via the litmus
//     test, the single-block AES key litmus test, full schedule
//     reconstruction with decay tolerance, plus the DDR3 baseline. The
//     attack is Halderman et al.'s expanded-key scan changed to work one
//     descrambled 64-byte block at a time, so a plaintext dump needs no
//     second scanner: its zero blocks mine as an all-zero key, and the
//     hunt over that key searches the plaintext.
//
//   - The defense (internal/engine): cycle-level cipher-engine models
//     (Table II), the DDR4 read-path queueing analysis (Figure 6), the
//     power/area overhead model (Figure 7), and drop-in encrypted-memory
//     scramblers that provably defeat the attack.
//
// This file provides the high-level scenario API: configure a victim
// machine, mount an encrypted volume on it, execute the physical cold boot
// procedure, run the attack, and try to unlock the volume with whatever
// keys fall out.
package coldboot

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"coldboot/internal/aes"
	"coldboot/internal/chacha"
	"coldboot/internal/core"
	"coldboot/internal/dram"
	"coldboot/internal/engine"
	"coldboot/internal/machine"
	"coldboot/internal/obs"
	"coldboot/internal/veracrypt"
	"coldboot/internal/workload"
)

// MemoryProtection selects what the victim's memory controller runs.
type MemoryProtection int

// Memory protection schemes for the victim machine.
const (
	// StockScrambler is the CPU generation's production scrambler (DDR3
	// LFSR or Skylake DDR4).
	StockScrambler MemoryProtection = iota
	// ScramblerOff disables scrambling entirely (the pre-DDR3 world).
	ScramblerOff
	// EncryptedChaCha8 replaces the scrambler with the paper's recommended
	// ChaCha8 engine.
	EncryptedChaCha8
	// EncryptedAES128 replaces the scrambler with an AES-128 CTR engine.
	EncryptedAES128
)

// Scenario describes one end-to-end cold boot experiment.
type Scenario struct {
	// CPU is a Table I model name (default "i5-6600K", Skylake DDR4).
	CPU string
	// Channels is the number of memory channels (1 or 2; default 1).
	Channels int
	// MemoryBytes is the physical memory size per channel (default 2 MiB —
	// small enough for fast simulation, large enough that every scrambler
	// address class recurs several times).
	MemoryBytes int
	// Workload fills the victim's memory (default workload.LightSystem).
	Workload workload.Profile
	// Password protects the VeraCrypt volume.
	Password string
	// KeysAddr is where the disk driver keeps its expanded key schedules
	// (default: a page-ish offset in the upper half of memory).
	KeysAddr uint64
	// FreezeTempC is the DIMM temperature during transfer (default -50,
	// the inverted-canister spray temperature from Halderman et al.; the
	// paper's upright gas duster reached -25, which works for transfers
	// under about a second — see the scenario tests for the measured
	// success envelope).
	FreezeTempC float64
	// TransferTime is how long the DIMM is unpowered (default 2s).
	TransferTime time.Duration
	// SameMachineReboot reboots the victim into the dump instead of moving
	// the DIMM to a second machine (no decay, same generation trivially).
	SameMachineReboot bool
	// AttackerCPU is the Table I model of the dumping machine (default:
	// same as CPU). The paper requires a matching generation.
	AttackerCPU string
	// Protection selects the victim's memory protection.
	Protection MemoryProtection
	// Seed makes the whole scenario deterministic.
	Seed int64
	// RepairFlips forwards to the attack (window repair under decay).
	RepairFlips int
	// Formats restricts the attack's target-format hunt (see core.Config.
	// Formats): nil means every format registered in the running binary.
	// Binaries opt into non-AES scanners by importing
	// coldboot/internal/format/all; with an empty registry the attack is
	// the classic AES-schedule hunt.
	Formats []string
	// SeedReuseBIOS models the vendor BIOSes of §III-B observation 2 that
	// do NOT reset the scrambler seed each boot: the same keystream
	// returns after reboot, so the dump descrambles itself.
	SeedReuseBIOS bool
	// KeysInCPURegisters models TRESOR/Loop-Amnesia (§II-B): the disk
	// driver keeps keys in CPU registers and never writes the expanded
	// schedules to DRAM.
	KeysInCPURegisters bool
	// NVDIMM seats non-volatile DIMMs (§III-D/V): contents survive power
	// loss indefinitely at any temperature — no freezing required.
	NVDIMM bool
	// GroundProfile enables the §III-A profiling step on the attacker's
	// machine: after the attack dump, the DIMM is left to decay fully and
	// dumped again under the SAME boot (the keystream cancels in the
	// comparison), enabling asymmetric-decay repair in the analysis.
	// Only meaningful for DIMM-transfer scenarios.
	GroundProfile bool
	// Tracer observes the analysis pipeline (per-stage wall time, candidate
	// counters, progress); nil means no tracing. cmd/coldboot's -trace and
	// -progress flags install one.
	Tracer obs.Tracer
}

func (s Scenario) withDefaults() Scenario {
	if s.CPU == "" {
		s.CPU = "i5-6600K"
	}
	if s.Channels == 0 {
		s.Channels = 1
	}
	if s.MemoryBytes == 0 {
		s.MemoryBytes = 2 << 20
	}
	if s.Workload.Name == "" {
		s.Workload = workload.LightSystem
	}
	if s.Password == "" {
		s.Password = "correct horse battery staple"
	}
	if s.KeysAddr == 0 {
		s.KeysAddr = uint64(s.MemoryBytes*s.Channels/2) + 4096 + 16
	}
	if s.FreezeTempC == 0 {
		s.FreezeTempC = -50
	}
	if s.TransferTime == 0 {
		s.TransferTime = 2 * time.Second
	}
	if s.AttackerCPU == "" {
		s.AttackerCPU = s.CPU
	}
	return s
}

// Outcome reports everything a scenario run produced.
type Outcome struct {
	// VictimSeed and AttackerSeed are the scrambler boot seeds in play.
	VictimSeed, AttackerSeed uint64
	// Retention is the fraction of DIMM bits that survived the transfer
	// (1.0 for same-machine reboots).
	Retention float64
	// MinedKeys is the number of distinct scrambler keys mined.
	MinedKeys int
	// Stride is the inferred key-reuse period in blocks (0 if none).
	Stride int
	// Coverage is the fraction of address classes with a mined key.
	Coverage float64
	// GroundDump holds the §III-A ground-state profile when GroundProfile
	// was requested.
	GroundDump []byte
	// RecoveredMasters are the AES master keys the attack recovered.
	RecoveredMasters [][]byte
	// TrueMasters are the volume's actual XTS keys (ground truth).
	TrueMasters []byte
	// VolumeUnlocked reports whether the recovered keys decrypt the
	// victim's volume without the password.
	VolumeUnlocked bool
	// SecretRecovered is the contents of the volume's secret sector when
	// unlocked.
	SecretRecovered []byte
}

// secretPayload is the plaintext planted in the volume for verification.
const secretPayload = "TOP-SECRET: the cold boot attack recovered this sector."

// Run executes the full experiment: build the victim, mount the volume,
// fill memory, freeze/transfer/dump, attack, and attempt to unlock the
// volume with the recovered keys. The attack's scan loops poll ctx every
// chunk, so a timed-out or cancelled run stops promptly; the partial
// Outcome accumulated so far is returned together with ctx.Err().
func Run(ctx context.Context, s Scenario) (*Outcome, error) {
	dump, out, vol, cpu, err := capture(s)
	if err != nil {
		return nil, err
	}
	return analyze(ctx, s.withDefaults(), dump, out, vol, cpu)
}

// Capture performs only the acquisition half of a scenario — victim setup,
// volume mount, freeze/transfer, dump — returning the raw (scrambled) dump
// and the partially filled Outcome. Pair with AttackDump (or save the dump
// with internal/dumpfile via cmd/coldboot -capture) for offline analysis.
func Capture(s Scenario) ([]byte, *Outcome, error) {
	dump, out, _, _, err := capture(s)
	return dump, out, err
}

// capture builds the victim, mounts the volume, runs the physical phase,
// and returns the captured dump plus the context the analysis phase needs.
func capture(s Scenario) ([]byte, *Outcome, *veracrypt.Volume, machine.CPUModel, error) {
	s = s.withDefaults()
	cpu, ok := machine.CPUByName(s.CPU)
	if !ok {
		return nil, nil, nil, machine.CPUModel{}, fmt.Errorf("coldboot: unknown CPU %q (see machine.TableI)", s.CPU)
	}

	victimCfg := machine.Config{
		CPU:         cpu,
		Channels:    s.Channels,
		DIMMBytes:   s.MemoryBytes,
		ScramblerOn: s.Protection != ScramblerOff,
		BIOSEntropy: s.Seed,
	}
	if s.SeedReuseBIOS {
		victimCfg.SeedPolicy = machine.ReuseSeedAcrossBoots
	}
	if s.NVDIMM {
		spec := dram.NVDIMMSpec(s.MemoryBytes)
		victimCfg.ModuleSpec = &spec
	}
	switch s.Protection {
	case EncryptedChaCha8:
		victimCfg.NewScrambler = engine.ChaChaFactory(chacha.Rounds8)
	case EncryptedAES128:
		victimCfg.NewScrambler = engine.AESCTRFactory(aes.AES128)
	}
	victim, err := machine.New(victimCfg)
	if err != nil {
		return nil, nil, nil, cpu, err
	}
	if err := victim.Boot(); err != nil {
		return nil, nil, nil, cpu, err
	}
	out := &Outcome{VictimSeed: victim.LastSeed()}

	// Fill memory with a realistic workload, then mount the volume (the
	// driver's key schedules overwrite their little corner of it).
	mem := make([]byte, victim.MemSize())
	if err := workload.Fill(mem, s.Seed+1, s.Workload); err != nil {
		return nil, nil, nil, cpu, err
	}
	if err := victim.Write(0, mem); err != nil {
		return nil, nil, nil, cpu, err
	}
	salt := make([]byte, veracrypt.SaltSize)
	for i := range salt {
		salt[i] = byte(int(s.Seed) + i)
	}
	vol, err := veracrypt.Create([]byte(s.Password), 64*veracrypt.SectorSize, salt, nil)
	if err != nil {
		return nil, nil, nil, cpu, err
	}
	var keyMem veracrypt.MemWriter = victim
	if s.KeysInCPURegisters {
		keyMem = nil // TRESOR-style: schedules never touch DRAM
	}
	mounted, err := vol.Mount([]byte(s.Password), keyMem, s.KeysAddr)
	if err != nil {
		return nil, nil, nil, cpu, err
	}
	out.TrueMasters = mounted.MasterKeys()
	secret := make([]byte, veracrypt.SectorSize)
	copy(secret, secretPayload)
	if err := mounted.WriteSector(3, secret); err != nil {
		return nil, nil, nil, cpu, err
	}
	// The victim is seized while the volume is mounted: the schedules are
	// resident in DRAM. (An Unmount here would zero them and defeat the
	// attack — see TestUnmountDefeatsAttack.)

	// Physical phase: obtain a dump.
	var dump []byte
	if s.SameMachineReboot {
		if err := victim.Boot(); err != nil { // reseeds the scrambler
			return nil, nil, nil, cpu, err
		}
		out.AttackerSeed = victim.LastSeed()
		if dump, err = victim.Dump(); err != nil {
			return nil, nil, nil, cpu, err
		}
		out.Retention = 1.0
	} else {
		snapshot := victim.Controller().DIMM(0).Snapshot()
		victim.FreezeDIMMs(s.FreezeTempC)
		mods, err := victim.EjectDIMMs()
		if err != nil {
			return nil, nil, nil, cpu, err
		}
		machine.Transfer(mods, s.TransferTime)
		out.Retention = mods[0].MeasureRetention(snapshot)

		attackerCPU, ok := machine.CPUByName(s.AttackerCPU)
		if !ok {
			return nil, nil, nil, cpu, fmt.Errorf("coldboot: unknown attacker CPU %q", s.AttackerCPU)
		}
		attacker, err := machine.New(machine.Config{
			CPU:         attackerCPU,
			Channels:    s.Channels,
			DIMMBytes:   s.MemoryBytes,
			ScramblerOn: true, // the attacker does NOT need a disabled scrambler
			BIOSEntropy: s.Seed + 7919,
		})
		if err != nil {
			return nil, nil, nil, cpu, err
		}
		for ch := 0; ch < s.Channels; ch++ {
			if _, err := attacker.Controller().DetachDIMM(ch); err != nil {
				return nil, nil, nil, cpu, err
			}
			if err := attacker.InsertDIMM(ch, mods[ch]); err != nil {
				return nil, nil, nil, cpu, err
			}
		}
		if err := attacker.Boot(); err != nil {
			return nil, nil, nil, cpu, err
		}
		out.AttackerSeed = attacker.LastSeed()
		if dump, err = attacker.Dump(); err != nil {
			return nil, nil, nil, cpu, err
		}
		if s.GroundProfile {
			// Profile pass: let the DIMM decay fully, then dump again
			// without rebooting — same keystream, so dump XOR groundDump
			// reveals which bits could have decayed.
			for ch := 0; ch < s.Channels; ch++ {
				attacker.Controller().DIMM(ch).PowerOff()
				attacker.Controller().DIMM(ch).FullyDecay()
				attacker.Controller().DIMM(ch).PowerOn()
			}
			if out.GroundDump, err = attacker.Dump(); err != nil {
				return nil, nil, nil, cpu, err
			}
		}
	}

	return dump, out, vol, cpu, nil
}

// analyze runs the generation-appropriate attack on a captured dump and
// attempts to unlock the volume with whatever keys fall out. Cancellation
// mid-attack returns the partial Outcome together with ctx.Err().
func analyze(ctx context.Context, s Scenario, dump []byte, out *Outcome, vol *veracrypt.Volume, cpu machine.CPUModel) (*Outcome, error) {
	tracer := obs.OrNop(s.Tracer)
	cfg := core.Config{RepairFlips: s.RepairFlips, Tracer: s.Tracer}
	ddr3 := cpu.Memory == dram.DDR3 && s.Protection == StockScrambler
	if ddr3 {
		// DDR3 baseline (Bauer et al.): 16-key frequency analysis, then the
		// schedule hunt with the known per-class keys — the expanded-key
		// search over the descrambled image, with the decay-tolerant
		// window consensus on top.
		keys, err := core.MineDDR3Keys(ctx, dump)
		if err != nil {
			return nil, err
		}
		cfg.KeysForBlock = func(b int) [][]byte {
			return [][]byte{keys[b%core.DDR3KeyCount]}
		}
	} else {
		// Everything else mines its own keys. That includes the plaintext
		// dumps of a disabled scrambler or a seed-reusing BIOS (§III-B
		// observation 2): their zero blocks mine as the all-zero key, and
		// the hunt over it is the classic Halderman scan.
		cfg.GroundDump = out.GroundDump
		cfg.Formats = s.Formats
	}
	res, err := core.Attack(ctx, dump, cfg)
	if res == nil {
		return nil, err
	}
	if ddr3 {
		out.MinedKeys = core.DDR3KeyCount
		out.Stride = core.DDR3KeyCount
		out.Coverage = 1
	} else {
		if res.Mine != nil {
			out.MinedKeys = len(res.Mine.Keys)
		}
		out.Stride = res.Stride
		out.Coverage = res.Coverage
	}
	out.RecoveredMasters = dedupKeys(res.Masters())
	if err != nil {
		return out, err
	}

	// Endgame: unlock the volume with the recovered keys — no password.
	if len(out.RecoveredMasters) > 0 {
		unlockTimer := tracer.StartSpan("unlock")
		if m2, err := vol.MountWithRecoveredKeys(out.RecoveredMasters, nil, 0); err == nil {
			out.VolumeUnlocked = true
			buf := make([]byte, veracrypt.SectorSize)
			if err := m2.ReadSector(3, buf); err == nil {
				out.SecretRecovered = buf[:len(secretPayload)]
			}
		}
		unlockTimer.End()
		tracer.Count("unlock.masters_tried", int64(len(out.RecoveredMasters)))
	}
	return out, nil
}

// SecretPayload returns the plaintext planted in every scenario's volume,
// for verification by callers.
func SecretPayload() string { return secretPayload }

// dedupKeys removes duplicate masters in place. Quadratic by design: the
// handful of recovered keys never justifies string-keyed map copies of key
// material (keyflow), and []byte entries stay wipeable by the caller.
func dedupKeys(keys [][]byte) [][]byte {
	out := keys[:0]
	for _, k := range keys {
		dup := false
		for _, kept := range out {
			if bytes.Equal(kept, k) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, k)
		}
	}
	return out
}

// AttackDump runs the DDR4 attack pipeline directly on a raw scrambled
// memory dump and returns any recovered AES master keys — the entry point
// for dumps obtained outside the Scenario plumbing. tracer may be nil. A
// cancelled attack returns the masters recovered so far with ctx.Err().
func AttackDump(ctx context.Context, dump []byte, repairFlips int, tracer obs.Tracer) ([][]byte, error) {
	res, err := core.Attack(ctx, dump, core.Config{RepairFlips: repairFlips, Tracer: tracer})
	if res == nil {
		return nil, err
	}
	return res.Masters(), err
}
