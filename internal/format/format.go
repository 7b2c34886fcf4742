// Package format defines the pluggable target-format subsystem: the
// Scanner interface every key-material detector implements and the
// registry the pipeline resolves format names against.
//
// The paper's attack methodology (Section IV) is format-agnostic —
// descramble, then hunt for key material in the plaintext — so the hunt
// machinery in internal/core and the daemon in internal/service carry no
// knowledge of any particular target. Each format (LUKS2 volume-header
// detection, raw ChaCha20 states, ...) lives in its own subpackage,
// registers itself by name, and is selected per attack through
// core.Config.Formats / coldbootd's ?formats=. The AES key-schedule hunt
// ("aesxts") is built into internal/core: it needs the attack's key
// directory and pooled scratch, so it has no scanner here.
//
// A Scanner is a per-block hunt: the core attack drives it over each
// freshly descrambled 64-byte block, sharing the descramble work of the
// single pass across every enabled format. Reads beyond the block go
// through the attack's View.
package format

// Finding is one located key-material candidate (or, for volume-header
// formats, one recognized volume sighting with a nil Key).
type Finding struct {
	// Format is the registered name of the scanner that produced this.
	Format string
	// Offset is the byte offset of the candidate in the image.
	Offset int
	// Key is the recovered key material (nil for pure volume sightings).
	Key []byte
	// Score is the scanner's confidence in [0, 1].
	Score float64
	// Distance is the hamming distance between expected and observed
	// verification bits (scanner-specific).
	Distance int
	// Volume names the encrypted volume this key unlocks, when the scanner
	// could tie the two together (e.g. a LUKS2 header's UUID).
	Volume string
}

// Volume is one recognized encrypted-volume header found in the image.
type Volume struct {
	Format  string `json:"format"`
	Offset  int    `json:"offset"`
	UUID    string `json:"uuid,omitempty"`
	Label   string `json:"label,omitempty"`
	Cipher  string `json:"cipher,omitempty"`
	KeyBits int    `json:"key_bits,omitempty"`
}

// Scanner is one target format's per-block detector. The core attack
// calls ProbeBlock once per freshly descrambled 64-byte block so every
// enabled format shares a single descramble pass.
type Scanner interface {
	// Name is the registered format name ("luks2", "chacha20").
	Name() string
	// Width is the candidate width in bytes: how many image bytes one
	// finding spans (used for overlap/alias suppression).
	Width() int
	// KeyBytes is the length of the key a finding carries (0 for a
	// scanner that only sights volumes).
	KeyBytes() int
	// ProbeBlock probes one descrambled block. block is never retained,
	// absOff is its byte offset in the image, and view reaches
	// neighbouring descrambled bytes for candidates whose tail crosses the
	// block boundary. Hits are delivered through emit; implementations
	// must not allocate on the no-hit path (the pooled-scratch contract).
	ProbeBlock(block []byte, absOff int, view View, tolerance int, emit func(Finding))
}

// View is random access to descrambled image bytes beyond the block a
// scanner was handed. ReadDescrambled fills buf with the descrambled bytes
// at off, returning false when the range is outside the image or no
// scrambler key is known for a touched block.
type View interface {
	ReadDescrambled(off int, buf []byte) bool
}
