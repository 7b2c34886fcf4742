package core

import (
	"context"
	"testing"

	"coldboot/internal/aes"
)

// Fuzz targets: the attack parses adversarial memory dumps, so nothing in
// the hot path may panic on arbitrary bytes.

func FuzzKeyLitmus(f *testing.F) {
	f.Add(make([]byte, 64))
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, block []byte) {
		if len(block) != 64 {
			return
		}
		d := KeyLitmusDistance(block)
		if d < 0 || d > 256 {
			t.Fatalf("litmus distance %d out of range", d)
		}
	})
}

func FuzzAESLitmus(f *testing.F) {
	f.Add(make([]byte, 64), uint8(0))
	f.Fuzz(func(t *testing.T, block []byte, variant uint8) {
		if len(block) != 64 {
			return
		}
		v := []aes.Variant{aes.AES128, aes.AES192, aes.AES256}[int(variant)%3]
		for _, h := range AESLitmus(block, v, DefaultAESTolerance) {
			if h.WordOffset < 0 || h.WordOffset > 15 {
				t.Fatalf("hit offset %d out of range", h.WordOffset)
			}
			// Master derivation must not panic either.
			if m := MasterFromHit(block, h, v); len(m) != v.KeyBytes() {
				t.Fatalf("master length %d", len(m))
			}
		}
	})
}

func FuzzMineKeys(f *testing.F) {
	f.Add(make([]byte, 256))
	f.Fuzz(func(t *testing.T, dump []byte) {
		dump = dump[:len(dump)&^63]
		if len(dump) == 0 {
			return
		}
		res, err := MineKeys(context.Background(), dump, MineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range res.Keys {
			if len(k.Key) != 64 || k.Count < 1 {
				t.Fatal("malformed mined key")
			}
		}
	})
}
