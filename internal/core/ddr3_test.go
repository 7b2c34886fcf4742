package core

import (
	"bytes"
	"context"
	"testing"

	"coldboot/internal/bitutil"
	"coldboot/internal/scramble"
	"coldboot/internal/workload"
)

func buildDDR3Dump(t testing.TB, size int, seed int64, p workload.Profile) ([]byte, []byte, *scramble.DDR3) {
	t.Helper()
	plain := make([]byte, size)
	if err := workload.Fill(plain, seed, p); err != nil {
		t.Fatal(err)
	}
	s := scramble.NewDDR3(uint64(seed) + 5)
	dump := make([]byte, size)
	s.Scramble(dump, plain, 0)
	return dump, plain, s
}

func TestMineDDR3KeysByFrequency(t *testing.T) {
	dump, _, s := buildDDR3Dump(t, 1<<20, 1, workload.LightSystem)
	keys, err := MineDDR3Keys(context.Background(), dump)
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < DDR3KeyCount; idx++ {
		want := s.KeyAt(uint64(idx) * BlockBytes)
		if !bytes.Equal(keys[idx], want) {
			t.Fatalf("class %d key wrong", idx)
		}
	}
}

func TestUniversalRebootKey(t *testing.T) {
	// Scramble the same memory under two boots, XOR the dumps: one
	// universal key must emerge, equal to E(s1)^E(s2) for every class.
	plain := make([]byte, 1<<20)
	workload.Fill(plain, 3, workload.LoadedSystem)
	s1 := scramble.NewDDR3(0x1010)
	s2 := scramble.NewDDR3(0x2020)
	d1 := make([]byte, len(plain))
	d2 := make([]byte, len(plain))
	s1.Scramble(d1, plain, 0)
	s2.Scramble(d2, plain, 0)
	x := bitutil.XORNew(d1, d2)
	uni, err := UniversalRebootKey(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	want := bitutil.XORNew(s1.KeyAt(0), s2.KeyAt(0))
	if !bytes.Equal(uni, want) {
		t.Error("universal key differs from keystream XOR")
	}
	// And it must be the same across all 16 classes.
	for idx := uint64(1); idx < 16; idx++ {
		w := bitutil.XORNew(s1.KeyAt(idx*64), s2.KeyAt(idx*64))
		if !bytes.Equal(uni, w) {
			t.Fatalf("class %d breaks the universal key property", idx)
		}
	}
}

func TestUniversalKeyDoesNotExistOnDDR4(t *testing.T) {
	// Negative control: applying the DDR3 reboot attack to Skylake DDR4
	// dumps must NOT descramble the memory (Figure 3e).
	plain := make([]byte, 1<<20)
	workload.Fill(plain, 4, workload.LoadedSystem)
	s1 := scramble.NewSkylakeDDR4(0x1010)
	s2 := scramble.NewSkylakeDDR4(0x2020)
	d1 := make([]byte, len(plain))
	d2 := make([]byte, len(plain))
	s1.Scramble(d1, plain, 0)
	s2.Scramble(d2, plain, 0)
	x := bitutil.XORNew(d1, d2)
	uni, err := UniversalRebootKey(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	// Descrambling the XOR image with the "universal key" must leave most
	// blocks wrong: count blocks that become zero (they would all be zero
	// if the DDR3 property held on unchanged memory).
	fixed := 0
	for b := 0; b < len(x)/BlockBytes; b++ {
		if bytes.Equal(x[b*BlockBytes:(b+1)*BlockBytes], uni) {
			fixed++
		}
	}
	if frac := float64(fixed) / float64(len(x)/BlockBytes); frac > 0.01 {
		t.Errorf("DDR3 reboot attack explains %f of DDR4 blocks; should be near zero", frac)
	}
}

func TestMineDDR3KeysErrors(t *testing.T) {
	if _, err := MineDDR3Keys(context.Background(), make([]byte, 100)); err == nil {
		t.Error("unaligned dump accepted")
	}
}

func TestUniversalRebootKeyErrors(t *testing.T) {
	if _, err := UniversalRebootKey(context.Background(), nil); err == nil {
		t.Error("empty dump accepted")
	}
}

func BenchmarkDDR3FrequencyAttack(b *testing.B) {
	dump, _, _ := buildDDR3Dump(b, 1<<20, 5, workload.LightSystem)
	b.SetBytes(int64(len(dump)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineDDR3Keys(context.Background(), dump); err != nil {
			b.Fatal(err)
		}
	}
}
