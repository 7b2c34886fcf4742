package core

import (
	"bytes"
	"context"
	"testing"

	"coldboot/internal/aes"
	"coldboot/internal/bitutil"
	"coldboot/internal/workload"
)

// The classic Halderman scan over an unscrambled image is the core hunt
// under an all-zero keystream: a plaintext dump's zero blocks mine as the
// zero key, and descrambling with it leaves the image as it is. These
// tests pin that the one scanner covers the prior-art case.

// plaintextImage fills a plaintext image and plants v's expansion of a
// fresh master at off.
func plaintextImage(t testing.TB, size int, seed int64, v aes.Variant, off int) ([]byte, []byte) {
	t.Helper()
	img := make([]byte, size)
	if err := workload.Fill(img, seed, workload.LoadedSystem); err != nil {
		t.Fatal(err)
	}
	master := testMaster(seed*31, v.KeyBytes())
	copy(img[off:], aes.ExpandKeyBytes(master))
	return img, master
}

// zeroKeyConfig hunts v with the all-zero keystream as every block's only
// key.
func zeroKeyConfig(v aes.Variant) Config {
	zero := [][]byte{make([]byte, BlockBytes)}
	return Config{Variant: v, KeysForBlock: func(int) [][]byte { return zero }}
}

func TestAttackFindsPlaintextSchedules(t *testing.T) {
	for _, v := range []aes.Variant{aes.AES128, aes.AES192, aes.AES256} {
		for _, off := range []int{8192, 3*8192 + 36} { // block aligned; word aligned only
			img, master := plaintextImage(t, 512<<10, 7, v, off)
			res, err := Attack(context.Background(), img, zeroKeyConfig(v))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Keys) != 1 {
				t.Fatalf("%v at %d: %d keys, want 1", v, off, len(res.Keys))
			}
			k := res.Keys[0]
			if !bytes.Equal(k.Master, master) || k.Variant != v || k.TableStart != off {
				t.Errorf("%v at %d: found %v master %x at %d, want %x", v, off, k.Variant, k.Master, k.TableStart, master)
			}
		}
	}
}

// TestAttackFailsOnScrambledPlaintextImage is the motivating negative
// result: the Halderman scan is useless on a scrambled dump, which is why
// the paper's attack exists. The same image searched with its keystream
// gives the key back.
func TestAttackFailsOnScrambledPlaintextImage(t *testing.T) {
	const off = 8192
	img, master := plaintextImage(t, 512<<10, 12, aes.AES256, off)
	// A toy scrambler: every byte of block b is XORed with 0xA5^b.
	keystream := make([][][]byte, len(img)/BlockBytes)
	for b := range keystream {
		keystream[b] = [][]byte{bytes.Repeat([]byte{byte(0xA5 ^ b)}, BlockBytes)}
		bitutil.XORBlock64(img[b*BlockBytes:], img[b*BlockBytes:], keystream[b][0])
	}
	res, err := Attack(context.Background(), img, zeroKeyConfig(aes.AES256))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) != 0 {
		t.Errorf("zero-key hunt found %d keys in a scrambled image", len(res.Keys))
	}
	res, err = Attack(context.Background(), img, Config{KeysForBlock: func(b int) [][]byte { return keystream[b] }})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) != 1 || !bytes.Equal(res.Keys[0].Master, master) {
		t.Errorf("hunt with the keystream found %d keys, want the planted master", len(res.Keys))
	}
}
