package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"reflect"
	"testing"

	"coldboot/internal/aes"
	"coldboot/internal/chacha"
	_ "coldboot/internal/format/all" // register every built-in scanner
	"coldboot/internal/format/luks2"
	"coldboot/internal/scramble"
	"coldboot/internal/workload"
)

// This file is the registry-enabled half of the parity suite: the blank
// format/all import above loads every scanner into the registry for the
// WHOLE core test binary, so the frozen-oracle comparisons in
// parity_test.go also run with probers live — proving the single-pass
// prober hook-in leaves the native AES pipeline byte-identical.

// TestRegistryAESOnlyParity: an attack restricted to Formats:{"aesxts"}
// over the full registry must reproduce the frozen pre-refactor pipeline
// exactly — same masters, scores, offsets, anchors — on the frozen-oracle
// fixtures.
func TestRegistryAESOnlyParity(t *testing.T) {
	if raceEnabled {
		t.Skip("serial differential oracle: nothing for the race detector")
	}
	scenarios := []struct {
		name  string
		build func(t *testing.T) ([]byte, Config)
	}{
		{"clean_scrambled_1MiB", func(t *testing.T) ([]byte, Config) {
			dump := buildAttackDump(t, 1<<20, 61, workload.LightSystem,
				testMaster(601, 32), 4096*BlockBytes+128)
			return dump, Config{Workers: 1}
		}},
		{"decay_repair1", func(t *testing.T) ([]byte, Config) {
			dump := buildAttackDump(t, 1<<20, 62, workload.LightSystem,
				testMaster(602, 32), 2048*BlockBytes)
			decayBits(dump, 620, len(dump)*8/2000)
			return dump, Config{Workers: 1, RepairFlips: 1}
		}},
		{"aes128_variant", func(t *testing.T) ([]byte, Config) {
			dump := buildAttackDump(t, 512<<10, 65, workload.LightSystem,
				testMaster(605, 16), 1000*BlockBytes)
			decayBits(dump, 650, len(dump)*8/4000)
			return dump, Config{Workers: 1, Variant: aes.AES128, RepairFlips: 1}
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dump, cfg := sc.build(t)
			restricted := cfg
			restricted.Formats = []string{FormatAESXTS}
			got, err := Attack(context.Background(), dump, restricted)
			if err != nil {
				t.Fatal(err)
			}
			want := refAttack(dump, cfg)
			if got.PairsTested != want.PairsTested {
				t.Errorf("PairsTested: got %d, want %d", got.PairsTested, want.PairsTested)
			}
			if len(got.Volumes) != 0 {
				t.Errorf("aesxts-only attack reported volumes: %+v", got.Volumes)
			}
			if len(got.Keys) != len(want.Keys) {
				t.Fatalf("Keys: got %d, want %d", len(got.Keys), len(want.Keys))
			}
			for i := range want.Keys {
				g := got.Keys[i]
				if g.Format != FormatAESXTS {
					t.Errorf("key %d format: got %q, want %q", i, g.Format, FormatAESXTS)
				}
				g.Format, g.Volume = "", ""
				if !reflect.DeepEqual(g, want.Keys[i]) {
					t.Errorf("key %d differs:\n got  %+v\n want %+v", i, g, want.Keys[i])
				}
			}
		})
	}
}

// multiFormatOffsets pins where buildMultiFormatDump plants each target.
const (
	mfVeraStart   = 1200*BlockBytes + 32  // lone VeraCrypt AES-256 schedule
	mfLUKSStart   = 9000*BlockBytes + 16  // dm-crypt XTS pair: data key…
	mfLUKSTweak   = mfLUKSStart + 240     // …tweak key schedule, adjacent
	mfHeaderStart = 20000 * BlockBytes    // page-cache copy of the LUKS2 header
	mfChaChaStart = 26000*BlockBytes + 16 // raw ChaCha20 state, word offset 4
	mfUUID        = "deadbeef-aaaa-bbbb-cccc-0123456789ab"
)

// buildMultiFormatDump builds one scrambled dump holding every supported
// target: a lone VeraCrypt schedule, a LUKS2 VMK schedule pair plus its
// volume header, and a raw ChaCha20 state.
func buildMultiFormatDump(t testing.TB, size int, seed int64, vera, luksData, luksTweak, chachaKey []byte) []byte {
	t.Helper()
	plain := make([]byte, size)
	if err := workload.Fill(plain, seed, workload.LightSystem); err != nil {
		t.Fatal(err)
	}
	copy(plain[mfVeraStart:], aes.ExpandKeyBytes(vera))
	copy(plain[mfLUKSStart:], aes.ExpandKeyBytes(luksData))
	copy(plain[mfLUKSTweak:], aes.ExpandKeyBytes(luksTweak))
	copy(plain[mfHeaderStart:], luks2.EncodeHeader(&luks2.Header{
		Primary:     true,
		Version:     2,
		HeaderSize:  16384,
		SeqID:       3,
		Label:       "vault",
		ChecksumAlg: "sha256",
		UUID:        mfUUID,
		Cipher:      "aes-xts-plain64",
		KeyBytes:    64,
	}))
	st := plain[mfChaChaStart : mfChaChaStart+64]
	for i, w := range chacha.Sigma() {
		binary.LittleEndian.PutUint32(st[4*i:], w)
	}
	copy(st[16:48], chachaKey)
	binary.LittleEndian.PutUint32(st[48:], 9)                 // block counter
	copy(st[52:], []byte{7, 7, 7, 7, 8, 8, 8, 8, 9, 9, 9, 9}) // nonce
	s := scramble.NewSkylakeDDR4(uint64(seed)*31 + 7)
	dump := make([]byte, size)
	s.Scramble(dump, plain, 0)
	return dump
}

// keyByFormat indexes a result's keys by format tag.
func keyByFormat(keys []FoundKey) map[string][]FoundKey {
	out := make(map[string][]FoundKey)
	for _, k := range keys {
		out[k.Format] = append(out[k.Format], k)
	}
	return out
}

// TestAttackMultiFormatSinglePass is the tentpole acceptance at the core
// layer: one attack over one scrambled+decayed dump recovers the VeraCrypt
// master, both LUKS2 VMK halves (tagged with the header's UUID), and the
// ChaCha20 key — each finding tagged with its format — in a single pass.
func TestAttackMultiFormatSinglePass(t *testing.T) {
	vera, ld, lt := testMaster(9001, 32), testMaster(9002, 32), testMaster(9003, 32)
	ck := testMaster(9004, 32)
	dump := buildMultiFormatDump(t, 2<<20, 90, vera, ld, lt, ck)
	// Deterministic decay chosen to land outside the strict-parse header
	// and the raw ChaCha state (the AES schedules have repair machinery;
	// those two targets model intact page-cache/state pages).
	decayBits(dump, 903, len(dump)*8/5000)

	res, err := Attack(context.Background(), dump, Config{RepairFlips: 1})
	if err != nil {
		t.Fatal(err)
	}
	byf := keyByFormat(res.Keys)

	if n := len(byf[FormatAESXTS]); n != 1 {
		t.Fatalf("aesxts keys: got %d, want 1 (%+v)", n, res.Keys)
	}
	if k := byf[FormatAESXTS][0]; !bytes.Equal(k.Master, vera) || k.TableStart != mfVeraStart {
		t.Errorf("vera key mismatch: %+v", k)
	}

	if n := len(byf[FormatLUKS2]); n != 2 {
		t.Fatalf("luks2 keys: got %d, want 2 (%+v)", n, res.Keys)
	}
	gotMasters := map[string]bool{}
	for _, k := range byf[FormatLUKS2] {
		gotMasters[string(k.Master)] = true
		if k.Volume != mfUUID {
			t.Errorf("luks2 key at %d volume = %q, want %q", k.TableStart, k.Volume, mfUUID)
		}
	}
	if !gotMasters[string(ld)] || !gotMasters[string(lt)] {
		t.Errorf("luks2 pair masters not both recovered")
	}

	if n := len(byf["chacha20"]); n != 1 {
		t.Fatalf("chacha20 keys: got %d, want 1 (%+v)", n, res.Keys)
	}
	if k := byf["chacha20"][0]; !bytes.Equal(k.Master, ck) || k.TableStart != mfChaChaStart {
		t.Errorf("chacha key mismatch: got %x at %d, want %x at %d", k.Master, k.TableStart, ck, mfChaChaStart)
	}

	if len(res.Volumes) != 1 || res.Volumes[0].UUID != mfUUID || res.Volumes[0].Offset != mfHeaderStart {
		t.Errorf("volumes: %+v, want one %s at %d", res.Volumes, mfUUID, mfHeaderStart)
	}
	counts := res.FormatCounts()
	if counts[FormatAESXTS] != 1 || counts[FormatLUKS2] != 2 || counts["chacha20"] != 1 {
		t.Errorf("format counts: %v", counts)
	}
}

// TestCampaignMultiFormat: the sharded path tags and merges identically,
// including a LUKS2 pair whose tagging depends on the post-merge pass.
func TestCampaignMultiFormat(t *testing.T) {
	vera, ld, lt := testMaster(9101, 32), testMaster(9102, 32), testMaster(9103, 32)
	ck := testMaster(9104, 32)
	dump := buildMultiFormatDump(t, 2<<20, 91, vera, ld, lt, ck)

	res, err := RunCampaignSource(context.Background(), BytesSource(dump), CampaignConfig{
		ShardBlocks: 8192, // 512 KiB shards: every planted target in a different shard
	})
	if err != nil {
		t.Fatal(err)
	}
	byf := keyByFormat(res.Keys)
	if len(byf[FormatAESXTS]) != 1 || len(byf[FormatLUKS2]) != 2 || len(byf["chacha20"]) != 1 {
		t.Fatalf("campaign keys per format: aesxts=%d luks2=%d chacha20=%d (%+v)",
			len(byf[FormatAESXTS]), len(byf[FormatLUKS2]), len(byf["chacha20"]), res.Keys)
	}
	for _, k := range byf[FormatLUKS2] {
		if k.Volume != mfUUID {
			t.Errorf("luks2 key volume = %q, want %q", k.Volume, mfUUID)
		}
	}
	if len(res.Volumes) != 1 || res.Volumes[0].Offset != mfHeaderStart {
		t.Errorf("campaign volumes: %+v", res.Volumes)
	}
}

// TestAttackFormatFilter: a chacha20-only attack must drop the AES
// schedules it never asked for; a luks2-only attack keeps the VMK pair
// but drops the lone VeraCrypt schedule.
func TestAttackFormatFilter(t *testing.T) {
	vera, ld, lt := testMaster(9201, 32), testMaster(9202, 32), testMaster(9203, 32)
	ck := testMaster(9204, 32)
	dump := buildMultiFormatDump(t, 2<<20, 92, vera, ld, lt, ck)

	res, err := Attack(context.Background(), dump, Config{Formats: []string{"chacha20"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) != 1 || res.Keys[0].Format != "chacha20" {
		t.Fatalf("chacha20-only keys: %+v", res.Keys)
	}

	res, err = Attack(context.Background(), dump, Config{Formats: []string{FormatLUKS2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) != 2 {
		t.Fatalf("luks2-only keys: %+v", res.Keys)
	}
	for _, k := range res.Keys {
		if k.Format != FormatLUKS2 {
			t.Fatalf("luks2-only attack leaked %q key", k.Format)
		}
	}
}

// TestResolveFormats: unknown names fail fast; KnownFormats covers the
// registry plus the built-in hunt.
func TestResolveFormats(t *testing.T) {
	if _, err := Attack(context.Background(), make([]byte, 64), Config{Formats: []string{"nope"}}); err == nil {
		t.Fatal("unknown format accepted")
	}
	known := map[string]bool{}
	for _, n := range KnownFormats() {
		known[n] = true
	}
	for _, want := range []string{FormatAESXTS, FormatLUKS2, "chacha20"} {
		if !known[want] {
			t.Errorf("KnownFormats missing %q: %v", want, KnownFormats())
		}
	}
}

// TestDescrambleView: reads through block boundaries reconstruct the
// plaintext, mixing the in-flight descramble with directory descrambles.
func TestDescrambleView(t *testing.T) {
	plain := make([]byte, 4*BlockBytes)
	for i := range plain {
		plain[i] = byte(i * 7)
	}
	key := testMaster(55, BlockBytes)
	dump := make([]byte, len(plain))
	for b := 0; b < 4; b++ {
		for i := 0; i < BlockBytes; i++ {
			dump[b*BlockBytes+i] = plain[b*BlockBytes+i] ^ key[i]
		}
	}
	v := &descrambleView{
		data:      dump,
		directory: func(b int) [][]byte { return [][]byte{key} },
	}
	// Current block 1 uses the worker's in-flight buffer (here: a sentinel
	// pattern) to honour the candidate key under test.
	cur := make([]byte, BlockBytes)
	copy(cur, plain[BlockBytes:2*BlockBytes])
	v.curBlock, v.curDescrambled = 1, cur

	buf := make([]byte, 100)
	if !v.ReadDescrambled(30, buf) {
		t.Fatal("in-range read failed")
	}
	if !bytes.Equal(buf, plain[30:130]) {
		t.Fatalf("view bytes differ\n got  %x\n want %x", buf, plain[30:130])
	}
	if v.ReadDescrambled(len(dump)-10, buf) {
		t.Fatal("out-of-range read succeeded")
	}
	if v.ReadDescrambled(-1, buf[:1]) {
		t.Fatal("negative offset read succeeded")
	}
}
