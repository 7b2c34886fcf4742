package core

import (
	"bytes"
	"context"
	"testing"

	"coldboot/internal/aes"
	"coldboot/internal/scramble"
	"coldboot/internal/workload"
)

// buildGroundScenario builds a dump with a key schedule, applies
// asymmetric decay (bits only flip toward a ground pattern) inside the
// schedule head window, and returns (dump, groundDump, master, tableStart).
func buildGroundScenario(t *testing.T, flipsInWindow int) (dump, groundDump, master []byte, tableStart int) {
	t.Helper()
	master = testMaster(400, 32)
	tableStart = 4096 * 64
	plain := make([]byte, 1<<20)
	workload.Fill(plain, 40, workload.LightSystem)
	copy(plain[tableStart:], aes.ExpandKeyBytes(master))
	s := scramble.NewSkylakeDDR4(4321)
	raw := make([]byte, len(plain)) // raw DIMM contents = scrambled data
	s.Scramble(raw, plain, 0)

	// Ground pattern: alternating 0x00/0xFF stripes, as in internal/dram.
	ground := make([]byte, len(raw))
	for i := range ground {
		if (i/128)%2 == 1 {
			ground[i] = 0xFF
		}
	}
	// Asymmetric decay inside the schedule head window (first 32 bytes):
	// flip raw bits TOWARD ground only.
	flipped := 0
	for bit := tableStart * 8; flipped < flipsInWindow && bit < (tableStart+32)*8; bit += 29 {
		i, m := bit/8, byte(1)<<uint(bit%8)
		if raw[i]&m != ground[i]&m {
			raw[i] ^= m
			flipped++
		}
	}
	if flipped != flipsInWindow {
		t.Fatalf("could only place %d/%d asymmetric flips", flipped, flipsInWindow)
	}

	// The attacker's machine adds its own keystream to BOTH captures.
	k2 := scramble.NewSkylakeDDR4(8765)
	dump = make([]byte, len(raw))
	k2.Scramble(dump, raw, 0)
	groundDump = make([]byte, len(ground))
	k2.Scramble(groundDump, ground, 0)
	return dump, groundDump, master, tableStart
}

func TestSuspectMaskCancelsKeystream(t *testing.T) {
	dump, groundDump, _, tableStart := buildGroundScenario(t, 0)
	// Where dump == groundDump, the underlying raw bit equals ground —
	// independent of the attacker keystream. About half of all bits of a
	// data block should be suspects.
	mask := SuspectMask(dump, groundDump, tableStart/64+10)
	ones := 0
	for _, b := range mask {
		for x := b; x != 0; x &= x - 1 {
			ones++
		}
	}
	if ones < 150 || ones > 360 {
		t.Errorf("suspect density %d/512 implausible", ones)
	}
}

func TestGroundRepairDirect(t *testing.T) {
	// Corrupt the schedule head window with 2 asymmetric flips, take the
	// hit anchored at the SECOND block (whose verify region is clean, so
	// it is detected), and repair the head... rather: anchor at the head
	// block itself with flips in non-prediction-feeding words, then repair.
	dump, groundDump, master, tableStart := buildGroundScenario(t, 2)
	mine, err := MineKeys(context.Background(), dump, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := ResidueDirectory(mine, mine.InferStride())
	blockIdx := tableStart / 64
	key := dir(blockIdx)
	if len(key) == 0 {
		t.Skip("head block's address class not mined under this seed")
	}
	descrambled := make([]byte, 64)
	for i := range descrambled {
		descrambled[i] = dump[blockIdx*64+i] ^ key[0][i]
	}
	repaired := false
	for _, hit := range AESLitmus(descrambled, aes.AES256, DefaultAESTolerance) {
		if windowDegenerate(descrambled, hit, 8) {
			continue
		}
		var rs repairScratch
		m, score, ok := repairWindowScratch(&rs, dump, groundDump, dir, descrambled, blockIdx, hit, aes.AES256)
		wm, ws := refRepairWindowGround(dump, groundDump, dir, descrambled, blockIdx, hit, aes.AES256, groundRepairFlips, minVerifyScore)
		checkRepairContract(t, "ground repairWindowScratch", m, score, ok, wm, ws, minVerifyScore)
		if ok && score >= 0.8 && bytes.Equal(m, master) {
			repaired = true
			break
		}
	}
	if !repaired {
		t.Fatal("ground-state repair did not recover the master from the corrupted window")
	}
}

func TestGroundRepairViaAttack(t *testing.T) {
	dump, groundDump, master, _ := buildGroundScenario(t, 2)
	res, err := Attack(context.Background(), dump, Config{GroundDump: groundDump})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range res.Keys {
		if bytes.Equal(k.Master, master) {
			found = true
		}
	}
	if !found {
		t.Fatal("attack with ground profile did not recover the key")
	}
}

func TestGroundDumpLengthValidated(t *testing.T) {
	dump := make([]byte, 1024)
	if _, err := Attack(context.Background(), dump, Config{GroundDump: make([]byte, 64)}); err == nil {
		t.Error("mismatched ground dump accepted")
	}
}
