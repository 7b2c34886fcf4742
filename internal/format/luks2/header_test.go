package luks2

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"coldboot/internal/format"
)

// sampleHeader is a fully populated, valid primary header.
func sampleHeader() *Header {
	return &Header{
		Primary:      true,
		Version:      2,
		HeaderSize:   16384,
		SeqID:        9,
		Label:        "backups",
		ChecksumAlg:  "sha256",
		UUID:         "0f5eed00-1111-2222-3333-444455556666",
		Subsystem:    "",
		HeaderOffset: 0,
		Cipher:       "aes-xts-plain64",
		KeyBytes:     64,
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	want := sampleHeader()
	got, err := ParseHeader(EncodeHeader(want))
	if err != nil {
		t.Fatalf("ParseHeader(EncodeHeader): %v", err)
	}
	if *got != *want {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestHeaderRoundTripSecondary(t *testing.T) {
	want := sampleHeader()
	want.Primary = false
	want.Cipher, want.KeyBytes = "", 0 // bare binary header, no JSON area
	got, err := ParseHeader(EncodeHeader(want))
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	if *got != *want {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestParseHeaderErrors(t *testing.T) {
	valid := EncodeHeader(sampleHeader())
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"truncated", func(d []byte) []byte { return d[:BinHeaderBytes-1] }, ErrTruncated},
		{"empty", func(d []byte) []byte { return nil }, ErrTruncated},
		{"bad magic", func(d []byte) []byte { d[0] = 'X'; return d }, ErrBadMagic},
		{"luks1 version", func(d []byte) []byte { binary.BigEndian.PutUint16(d[6:8], 1); return d }, ErrBadVersion},
		{"hdr_size zero", func(d []byte) []byte { binary.BigEndian.PutUint64(d[8:16], 0); return d }, ErrBadSize},
		{"hdr_size not power of two", func(d []byte) []byte { binary.BigEndian.PutUint64(d[8:16], 16384+1); return d }, ErrBadSize},
		{"hdr_size too small", func(d []byte) []byte { binary.BigEndian.PutUint64(d[8:16], MinHeaderSize/2); return d }, ErrBadSize},
		{"hdr_size too large", func(d []byte) []byte { binary.BigEndian.PutUint64(d[8:16], MaxHeaderSize*2); return d }, ErrBadSize},
		{"unprintable label", func(d []byte) []byte { d[24] = 0x07; return d }, ErrBadField},
		{"non-hex uuid", func(d []byte) []byte { d[168] = 'z'; return d }, ErrBadField},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(append([]byte(nil), valid...))
			if _, err := ParseHeader(data); !errors.Is(err, tc.want) {
				t.Errorf("ParseHeader = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestParseHeaderDamagedJSON: garbage in the JSON area must not fail the
// header — decayed dumps routinely lose the metadata while the binary
// header survives.
func TestParseHeaderDamagedJSON(t *testing.T) {
	h := sampleHeader()
	data := EncodeHeader(h)
	for i := BinHeaderBytes; i < len(data); i += 3 {
		data[i] ^= 0xa5
	}
	got, err := ParseHeader(data)
	if err != nil {
		t.Fatalf("ParseHeader with damaged JSON: %v", err)
	}
	if got.UUID != h.UUID {
		t.Errorf("UUID = %q, want %q", got.UUID, h.UUID)
	}
	// Hints may be zero, but must never invent values not in the data.
	if got.Cipher != "" && got.Cipher != h.Cipher {
		t.Errorf("Cipher = %q from damaged JSON", got.Cipher)
	}
}

// FuzzParseHeader hammers the strict binary parser with mutated headers:
// it must never panic, must only accept inputs that satisfy the documented
// invariants, and every accepted header must re-encode to bytes ParseHeader
// accepts again with identical fields (the parse/encode fixpoint).
func FuzzParseHeader(f *testing.F) {
	f.Add(EncodeHeader(sampleHeader()))
	secondary := sampleHeader()
	secondary.Primary = false
	f.Add(EncodeHeader(secondary))
	bare := sampleHeader()
	bare.Cipher, bare.KeyBytes = "", 0
	f.Add(EncodeHeader(bare))

	// Truncated header.
	f.Add(EncodeHeader(sampleHeader())[:100])
	// Bad magic.
	f.Add(append([]byte("LUKS\x00\x00"), make([]byte, BinHeaderBytes)...))
	// Oversized hdr_size claim with a huge keyslot key_size in the JSON.
	big := sampleHeader()
	big.HeaderSize = MaxHeaderSize
	big.KeyBytes = 1 << 20
	f.Add(EncodeHeader(big))
	// Malformed JSON area: opens like an object, never closes.
	f.Add(append(EncodeHeader(bare), []byte(`{"keyslots":{"0":`)...))
	// JSON area that is valid JSON but the wrong shape.
	f.Add(append(EncodeHeader(bare), []byte(`[1,2,3]`)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseHeader(data)
		if err != nil {
			if h != nil {
				t.Fatal("non-nil header alongside an error")
			}
			return
		}
		if h.Version != 2 {
			t.Fatalf("accepted version %d", h.Version)
		}
		if h.HeaderSize < MinHeaderSize || h.HeaderSize > MaxHeaderSize || h.HeaderSize&(h.HeaderSize-1) != 0 {
			t.Fatalf("accepted hdr_size %d", h.HeaderSize)
		}
		for _, s := range []string{h.Label, h.ChecksumAlg, h.UUID, h.Subsystem} {
			if strings.ContainsFunc(s, func(r rune) bool { return r < 0x20 || r > 0x7e }) {
				t.Fatalf("accepted unprintable field %q", s)
			}
		}
		for _, c := range h.UUID {
			if !(c == '-' || c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
				t.Fatalf("accepted non-hex uuid %q", h.UUID)
			}
		}
		// Parse/encode fixpoint: re-encoding an accepted header must parse
		// back to the same fields. (JSON hints survive only when both are
		// set the way EncodeHeader writes them.)
		h2, err := ParseHeader(EncodeHeader(h))
		if err != nil {
			t.Fatalf("re-encoded header rejected: %v", err)
		}
		if h2.Primary != h.Primary || h2.SeqID != h.SeqID || h2.Label != h.Label ||
			h2.UUID != h.UUID || h2.ChecksumAlg != h.ChecksumAlg || h2.Subsystem != h.Subsystem ||
			h2.HeaderOffset != h.HeaderOffset || h2.HeaderSize != h.HeaderSize {
			t.Fatalf("fixpoint mismatch:\n got %+v\nwant %+v", h2, h)
		}
	})
}

// TestProbeBlockRejectsNearMisses pins the prober's cheap pre-filters: a
// block that shares the magic's first byte but not the full prefix must be
// rejected before any View traffic.
func TestProbeBlockRejectsNearMisses(t *testing.T) {
	var hits int
	emit := func(format.Finding) { hits++ }
	view := failView{}
	for _, prefix := range [][]byte{
		[]byte("LUKS\xba\xbd"), // last magic byte off
		[]byte("SKUL\x00\xbe"),
		[]byte("linux-vdso"),
	} {
		block := make([]byte, 64)
		copy(block, prefix)
		Scanner{}.ProbeBlock(block, 0, view, 0, emit)
	}
	if hits != 0 {
		t.Errorf("near-miss blocks emitted %d findings", hits)
	}
}

// failView fails the test if the prober reads through it.
type failView struct{}

func (failView) ReadDescrambled(int, []byte) bool { return false }

// plainView serves an unscrambled image as its own descrambled bytes.
type plainView []byte

func (v plainView) ReadDescrambled(off int, buf []byte) bool {
	if off < 0 || off+len(buf) > len(v) {
		return false
	}
	copy(buf, v[off:])
	return true
}

// TestProbeBlockFullHeader drives the prober against a real encoded header
// served through a View.
func TestProbeBlockFullHeader(t *testing.T) {
	h := sampleHeader()
	image := make([]byte, 8<<10)
	copy(image, EncodeHeader(h))
	var got []format.Finding
	Scanner{}.ProbeBlock(image[:64], 0, plainView(image), 0, func(f format.Finding) { got = append(got, f) })
	if len(got) != 1 {
		t.Fatalf("findings = %d, want 1", len(got))
	}
	if got[0].Volume != h.UUID || got[0].Key != nil || got[0].Offset != 0 {
		t.Errorf("finding = %+v", got[0])
	}
	if !bytes.Equal(EncodeHeader(h)[:6], MagicPrimary) {
		t.Error("sample header lost its magic")
	}
}
