// Package aes is a from-scratch implementation of the AES block cipher
// (FIPS-197) with the specific extensions the cold boot attack needs:
//
//   - the full key expansion for AES-128/192/256 (the in-memory round-key
//     table that disk encryption software leaves resident in DRAM),
//   - partial key expansion: extending a window of consecutive schedule
//     words forwards OR backwards from an arbitrary round position, which is
//     what lets the attack verify a single 64-byte memory block without
//     descrambling its neighbours (Section III-C of the paper),
//   - CTR mode (the keystream construction evaluated as a scrambler
//     replacement in Section IV), and
//   - XTS mode (what VeraCrypt/TrueCrypt use for data encryption).
//
// The implementation favours clarity over speed but is fast enough that the
// attack-throughput benchmark is meaningful. Correctness is pinned to
// FIPS-197/NIST vectors and cross-checked against the Go standard library in
// the tests.
package aes

import "fmt"

// Variant identifies one of the three AES key sizes.
type Variant int

// The three standardized AES variants.
const (
	AES128 Variant = 128
	AES192 Variant = 192
	AES256 Variant = 256
)

// Nk returns the key length in 32-bit words.
func (v Variant) Nk() int {
	switch v {
	case AES128:
		return 4
	case AES192:
		return 6
	case AES256:
		return 8
	}
	panic(fmt.Sprintf("aes: invalid variant %d", v))
}

// Rounds returns the number of rounds Nr.
func (v Variant) Rounds() int {
	switch v {
	case AES128:
		return 10
	case AES192:
		return 12
	case AES256:
		return 14
	}
	panic(fmt.Sprintf("aes: invalid variant %d", v))
}

// KeyBytes returns the cipher key length in bytes.
func (v Variant) KeyBytes() int { return int(v) / 8 }

// ScheduleWords returns the number of 32-bit words in the full expanded key
// schedule: 4*(Nr+1).
func (v Variant) ScheduleWords() int { return 4 * (v.Rounds() + 1) }

// ScheduleBytes returns the size in bytes of the full expanded key schedule
// as it appears in memory (e.g. 240 bytes for AES-256).
func (v Variant) ScheduleBytes() int { return 4 * v.ScheduleWords() }

func (v Variant) String() string {
	return fmt.Sprintf("AES-%d", int(v))
}

// BlockSize is the AES block size in bytes.
const BlockSize = 16

// sbox and invSbox are generated at package init from the finite-field
// definition in FIPS-197 §5.1.1 rather than embedded as opaque literals;
// the known-answer tests validate specific entries and full vectors.
var sbox, invSbox [256]byte

func init() {
	// Build GF(2^8) exp/log tables over generator 3.
	var exp [256]byte
	var log [256]byte
	x := byte(1)
	for i := 0; i < 255; i++ {
		exp[i] = x
		log[x] = byte(i)
		// multiply x by 3 = x + 2x in GF(2^8)
		x ^= xtime(x)
	}
	inv := func(b byte) byte {
		if b == 0 {
			return 0
		}
		return exp[(255-int(log[b]))%255]
	}
	for i := 0; i < 256; i++ {
		b := inv(byte(i))
		// Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
		s := b ^ rotl8(b, 1) ^ rotl8(b, 2) ^ rotl8(b, 3) ^ rotl8(b, 4) ^ 0x63
		sbox[i] = s
		invSbox[s] = byte(i)
	}
}

func rotl8(b byte, n uint) byte { return b<<n | b>>(8-n) }

// xtime multiplies by x (i.e. 2) in GF(2^8) with the AES polynomial 0x11B.
func xtime(b byte) byte {
	v := b << 1
	if b&0x80 != 0 {
		v ^= 0x1B
	}
	return v
}

// gmul multiplies two field elements in GF(2^8).
func gmul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		a = xtime(a)
		b >>= 1
	}
	return p
}

// SubByte applies the AES S-box to one byte.
func SubByte(b byte) byte { return sbox[b] }

// InvSubByte applies the inverse S-box to one byte.
func InvSubByte(b byte) byte { return invSbox[b] }

// SubWord applies the S-box to each byte of a big-endian schedule word.
func SubWord(w uint32) uint32 {
	return uint32(sbox[w>>24])<<24 | uint32(sbox[w>>16&0xFF])<<16 |
		uint32(sbox[w>>8&0xFF])<<8 | uint32(sbox[w&0xFF])
}

// RotWord rotates a schedule word left by one byte.
func RotWord(w uint32) uint32 { return w<<8 | w>>24 }

// Rcon returns the round constant word {02^(i-1), 00, 00, 00} for round i
// (1-based).
func Rcon(i int) uint32 { return rconTable[(i-1)%len(rconTable)] }

// rconTable holds the round constants rcon(1), rcon(2), ...: the powers of
// x in GF(2^8), which repeat with period 51, so the table covers every
// round of an arbitrarily long extension.
var rconTable = func() [51]uint32 {
	var t [51]uint32
	c := byte(1)
	for i := range t {
		t[i] = uint32(c) << 24
		c = xtime(c)
	}
	return t
}()
