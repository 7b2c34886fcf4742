package chacha20

import (
	"bytes"
	"encoding/binary"
	"testing"

	"coldboot/internal/format"
)

// sliceView serves descrambled bytes straight from an image and counts
// the reads, so a test can tell which candidates went through the View.
type sliceView struct {
	img   []byte
	reads int
}

func (v *sliceView) ReadDescrambled(off int, buf []byte) bool {
	v.reads++
	if off < 0 || off+len(buf) > len(v.img) {
		return false
	}
	copy(buf, v.img[off:])
	return true
}

// testKey is a fixed 32-byte key whose words sit far from sigma[0].
func testKey() []byte {
	k := make([]byte, keyBytes)
	for i := range k {
		k[i] = byte(0x11 * (i%15 + 1))
	}
	return k
}

// plantState writes a ChaCha20 state (sigma, key, counter, nonce) at off.
func plantState(img []byte, off int, key []byte) {
	for i, w := range sigma {
		binary.LittleEndian.PutUint32(img[off+4*i:], w)
	}
	copy(img[off+16:], key)
	binary.LittleEndian.PutUint32(img[off+48:], 1)
}

// flipBits flips n bits of the sigma prefix of the state at off, cycling
// over its four words.
func flipBits(img []byte, off, n int) {
	for i := 0; i < n; i++ {
		img[off+4*(i%4)+i/4] ^= 0x01
	}
}

// probe runs ProbeBlock at the default tolerance over the 64-byte block at
// blockOff and collects the findings.
func probe(img []byte, blockOff int, view format.View) []format.Finding {
	var got []format.Finding
	Scanner{}.ProbeBlock(img[blockOff:blockOff+StateBytes], blockOff, view, 0,
		func(f format.Finding) { got = append(got, f) })
	return got
}

func TestProbeBlockFindsStateAtEveryWordOffset(t *testing.T) {
	key := testKey()
	const blockOff = 64
	for o := 0; o < StateBytes; o += 4 {
		img := make([]byte, 3*StateBytes)
		plantState(img, blockOff+o, key)
		view := &sliceView{img: img}
		got := probe(img, blockOff, view)
		if len(got) != 1 {
			t.Fatalf("offset %d: %d findings, want 1 (%+v)", o, len(got), got)
		}
		f := got[0]
		if f.Format != Name || f.Offset != blockOff+o || !bytes.Equal(f.Key, key) || f.Distance != 0 || f.Score != 1 {
			t.Errorf("offset %d: finding %+v, want offset %d, distance 0, key %x", o, f, blockOff+o, key)
		}
		if straddles := o > 0; straddles != (view.reads > 0) {
			t.Errorf("offset %d: %d view reads, want reads only for a straddling state", o, view.reads)
		}
	}
}

func TestProbeBlockToleratesEightFlips(t *testing.T) {
	// Offset 56 puts sigma words 2 and 3 in the next block, so the
	// distance is summed across the boundary.
	for _, o := range []int{0, 56} {
		for _, flips := range []int{DefaultTolerance, DefaultTolerance + 1} {
			want := 0
			if flips <= DefaultTolerance {
				want = 1
			}
			img := make([]byte, 2*StateBytes)
			plantState(img, o, testKey())
			flipBits(img, o, flips)
			got := probe(img, 0, &sliceView{img: img})
			if len(got) != want {
				t.Fatalf("offset %d, %d flips: %d findings, want %d (%+v)", o, flips, len(got), want, got)
			}
			if want == 1 && (got[0].Distance != flips || got[0].Score != 1-float64(flips)/128) {
				t.Errorf("offset %d, %d flips: distance %d score %v", o, flips, got[0].Distance, got[0].Score)
			}
		}
	}
}

func TestProbeBlockNilViewDropsStraddlingState(t *testing.T) {
	for o := 4; o < StateBytes; o += 4 {
		img := make([]byte, 2*StateBytes)
		plantState(img, o, testKey())
		if got := probe(img, 0, nil); len(got) != 0 {
			t.Errorf("offset %d: nil view emitted %+v", o, got)
		}
	}
}

// TestProbeBlockRejectsWithoutAllocating: candidates that pass the word-0
// filter but fail a sigma word inside the block must not buffer a tail.
func TestProbeBlockRejectsWithoutAllocating(t *testing.T) {
	img := make([]byte, 2*StateBytes)
	// Word 0 passes at every offset <= 48; the next word is sigma[0]
	// again, which is 11 bits from sigma[1].
	for o := 0; o <= 48; o += 4 {
		binary.LittleEndian.PutUint32(img[o:], sigma[0])
	}
	for o := 52; o < StateBytes; o += 4 {
		binary.LittleEndian.PutUint32(img[o:], ^sigma[0])
	}
	view := &sliceView{img: img}
	emit := func(f format.Finding) { t.Fatalf("unexpected finding %+v", f) }
	block := img[:StateBytes]
	allocs := testing.AllocsPerRun(100, func() {
		Scanner{}.ProbeBlock(block, 0, view, 0, emit)
	})
	if allocs != 0 {
		t.Errorf("ProbeBlock allocates %v times per block on rejected candidates", allocs)
	}
	if view.reads != 0 {
		t.Errorf("%d view reads for candidates the block itself rejects", view.reads)
	}
}
