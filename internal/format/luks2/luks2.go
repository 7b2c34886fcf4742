// Package luks2 detects LUKS2 volume master keys in memory dumps. A
// mounted LUKS2 volume leaves two artifacts in RAM: the dm-crypt XTS key
// schedules (two ADJACENT expanded AES schedules — data key then tweak
// key, back to back in the crypto_xfm) and, via the page cache, the
// volume's on-disk LUKS2 header. The scanner hunts both and ties them
// together: schedule pairs become VMK findings tagged with the UUID of
// the recognized header, so a recovered key names the volume it unlocks
// ("Security Through Amnesia"'s canonical cold-boot prize).
package luks2

import (
	"coldboot/internal/aes"
	"coldboot/internal/format"
)

// Name is the registered format name.
const Name = "luks2"

// probeJSONBytes is how much JSON metadata the block prober tries to pull
// through the View after a magic match, for cipher/key-size hints.
const probeJSONBytes = 4 << 10

// Scanner locates LUKS2 VMKs (adjacent AES-XTS schedule pairs) and LUKS2
// headers. Its ProbeBlock is the header-recognition half; the schedule
// hunt over scrambled dumps rides the core attack's native AES hunt,
// which the core tags as "luks2" when it pairs up next to a sighted
// header.
type Scanner struct{}

func init() { format.Register(Scanner{}) }

// Name returns "luks2".
func (Scanner) Name() string { return Name }

// Width returns the candidate width of one schedule half (240 bytes).
func (Scanner) Width() int { return aes.AES256.ScheduleBytes() }

// KeyBytes returns 0: findings are volume sightings, never keys.
func (Scanner) KeyBytes() int { return 0 }

// ProbeBlock checks whether absOff starts a LUKS2 header. Headers are
// sector-aligned on disk and page-aligned in the page cache, so only
// block-start offsets are candidates — which also makes the no-hit path a
// single byte compare with zero allocations. On a magic match the full
// binary header (plus up to 4 KiB of JSON area) is pulled through view
// and strictly parsed; survivors are emitted as nil-Key volume sightings
// carrying the header UUID.
func (Scanner) ProbeBlock(block []byte, absOff int, view format.View, tolerance int, emit func(format.Finding)) {
	if len(block) < 6 || view == nil {
		return
	}
	if c := block[0]; c != 'L' && c != 'S' {
		return
	}
	if m := string(block[:6]); m != string(MagicPrimary) && m != string(MagicSecondary) {
		return
	}
	tryHeader(absOff, view, emit)
}

func tryHeader(absOff int, view format.View, emit func(format.Finding)) {
	var buf [BinHeaderBytes + probeJSONBytes]byte
	data := buf[:]
	if !view.ReadDescrambled(absOff, data) {
		// Near the image end (or over blocks with no usable scrambler key)
		// fall back to the bare binary header.
		data = buf[:BinHeaderBytes]
		if !view.ReadDescrambled(absOff, data) {
			return
		}
	}
	h, err := ParseHeader(data)
	if err != nil {
		return
	}
	emit(format.Finding{Format: Name, Offset: absOff, Score: 1, Volume: h.UUID})
}
