package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	//lint:ignore noweakrand seeded deterministic benchmark fixtures, not keystream material
	"math/rand"
	"sort"
	"strconv"
	"time"

	"coldboot/internal/aes"
	"coldboot/internal/chacha"
	"coldboot/internal/core"
	"coldboot/internal/dram"
	"coldboot/internal/dumpfile"
	"coldboot/internal/format/luks2"
	"coldboot/internal/scramble"
	"coldboot/internal/secret"
	"coldboot/internal/workload"
)

// Target mixes a fixture can plant.
const (
	// mixAllFormats plants one target per registered format, the way
	// cmd/servesmoke does: an AES-256 master schedule (aesxts), a LUKS2
	// VMK schedule pair with its volume header (luks2), and a raw ChaCha20
	// state (chacha20).
	mixAllFormats = "all-formats"
	// mixAESMasters plants many AES-256 master schedules (aesxts only).
	mixAESMasters = "aes-masters"
)

// decayModule is the retention model every fixture decays under: the
// paper's DDR4-2400 stick (Tau20s 2.7 s). At -50 C / 2 s it flips ~0.29 %
// of the image bits, at -25 C / 0.5 s ~0.41 %.
var decayModule = dram.ModuleCatalog[6]

// fixtureSpec describes how one workload's dumps are generated.
type fixtureSpec struct {
	imageBytes int
	mix        string
	masters    int // AES masters planted by mixAESMasters
	tempC      float64
	decay      time.Duration
}

// planted is one ground-truth target: the format it was planted as and
// its key bytes.
type planted struct {
	format string
	master []byte
}

// fixture is one generated dump: the container the service receives, the
// ground truth planted into it, and the library reference result.
type fixture struct {
	index     int
	container []byte
	image     []byte // the raw dump inside the container
	planted   []planted
	flipFrac  float64 // fraction of image bits the decay flipped
	// reference is the sorted key set core.RunCampaignSource reports over
	// the same bytes under the service's configuration.
	reference []string
}

// fixtureSeed derives fixture i's seed from the run seed.
func fixtureSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 + 1 }

// buildFixture generates fixture i: workload.Fill contents, planted
// targets, Skylake DDR4 scrambling, and decay through the dram retention
// model. Format targets that cmd/servesmoke keeps intact (the LUKS2 header
// and the ChaCha20 state) are restored after decay.
func buildFixture(spec fixtureSpec, seed int64, i int) (*fixture, error) {
	fseed := fixtureSeed(seed, i)
	rng := rand.New(rand.NewSource(fseed))
	size := spec.imageBytes
	plain := make([]byte, size)
	if err := workload.Fill(plain, fseed, workload.LightSystem); err != nil {
		return nil, err
	}
	fx := &fixture{index: i}
	var keep [][2]int // [start, end) ranges left undecayed

	switch spec.mix {
	case mixAllFormats:
		slot := size / 4
		at := func(k int, align int) int {
			return k*slot + align*rng.Intn((slot-2048)/align)
		}
		vera, luksData, luksTweak, chachaKey := key32(rng), key32(rng), key32(rng), key32(rng)
		off := at(0, 16)
		copy(plain[off:], aes.ExpandKeyBytes(vera))
		off = at(1, 16)
		copy(plain[off:], aes.ExpandKeyBytes(luksData))
		copy(plain[off+aes.AES256.ScheduleBytes():], aes.ExpandKeyBytes(luksTweak))
		off = at(2, workload.PageBytes)
		header := luks2.EncodeHeader(&luks2.Header{
			Primary:     true,
			Version:     2,
			HeaderSize:  16384,
			SeqID:       7,
			Label:       "bench",
			ChecksumAlg: "sha256",
			UUID:        fmt.Sprintf("5c01db00-0000-4000-8000-%012x", fseed&0xffffffffffff),
			Cipher:      "aes-xts-plain64",
			KeyBytes:    64,
		})
		copy(plain[off:], header)
		keep = append(keep, [2]int{off, off + len(header)})
		off = at(3, 16)
		st := plain[off : off+64]
		for w, v := range chacha.Sigma() {
			binary.LittleEndian.PutUint32(st[4*w:], v)
		}
		copy(st[16:48], chachaKey)
		binary.LittleEndian.PutUint32(st[48:], 1)
		keep = append(keep, [2]int{off, off + 64})
		fx.planted = []planted{
			{core.FormatAESXTS, vera},
			{core.FormatLUKS2, luksData},
			{core.FormatLUKS2, luksTweak},
			{"chacha20", chachaKey},
		}
	case mixAESMasters:
		slot := size / spec.masters
		for k := 0; k < spec.masters; k++ {
			m := key32(rng)
			off := k*slot + 16*rng.Intn((slot-512)/16)
			copy(plain[off:], aes.ExpandKeyBytes(m))
			fx.planted = append(fx.planted, planted{core.FormatAESXTS, m})
		}
	default:
		return nil, fmt.Errorf("unknown target mix %q", spec.mix)
	}

	scrambled := make([]byte, size)
	scramble.NewSkylakeDDR4(uint64(fseed)*31+7).Scramble(scrambled, plain, 0)

	modSpec := decayModule
	modSpec.Geometry = modSpec.Geometry.WithCapacity(size)
	mod, err := dram.NewModule(modSpec, fseed^0x5eed)
	if err != nil {
		return nil, err
	}
	mod.Write(0, scrambled)
	mod.PowerOff()
	mod.SetTemperature(spec.tempC)
	mod.Elapse(spec.decay)
	fx.flipFrac = float64(mod.DecayedBits()) / float64(size*8)
	image := plain // reuse the buffer
	mod.Read(0, image)
	for _, r := range keep {
		copy(image[r[0]:r[1]], scrambled[r[0]:r[1]])
	}

	meta := dumpfile.Metadata{
		CPU:             "perfbench Skylake DDR4 rig",
		Channels:        1,
		ScramblerOn:     true,
		FreezeTempC:     spec.tempC,
		TransferSeconds: spec.decay.Seconds(),
		Notes:           "fixture " + strconv.Itoa(i) + " seed " + strconv.FormatInt(seed, 10),
	}
	// The image is kept as a view into the container, so a fixture holds
	// one copy of its dump.
	buf := bytes.NewBuffer(make([]byte, 0, size+1024))
	if err := dumpfile.Write(buf, meta, image); err != nil {
		return nil, err
	}
	fx.container = buf.Bytes()
	// Container layout: header, image, then a 4-byte CRC trailer.
	imageStart := len(fx.container) - 4 - size
	fx.image = fx.container[imageStart : imageStart+size]
	if !bytes.Equal(fx.image, image) {
		return nil, fmt.Errorf("fixture %d: image not found at the end of its container", i)
	}
	return fx, nil
}

func key32(rng *rand.Rand) []byte {
	k := make([]byte, 32)
	rng.Read(k)
	return k
}

// serviceCampaign is the campaign configuration the analysis service
// builds for a job submitted with ?repair=repair and no other options.
func serviceCampaign(repair int) core.CampaignConfig {
	return core.CampaignConfig{
		Attack:   core.Config{Variant: aes.AES256, RepairFlips: repair},
		Parallel: 1,
	}
}

// referenceKeys runs the library campaign over a fixture's bytes and
// returns its key set in the form the result document is compared in.
func referenceKeys(ctx context.Context, fx *fixture, repair int) ([]string, error) {
	res, err := core.RunCampaignSource(ctx, core.BytesSource(fx.image), serviceCampaign(repair))
	if err != nil {
		return nil, fmt.Errorf("reference campaign for fixture %d: %w", fx.index, err)
	}
	out := make([]string, 0, len(res.Keys))
	for _, k := range res.Keys {
		out = append(out, keyID(k.Format, secret.Fingerprint(k.Master), k.TableStart))
	}
	sort.Strings(out)
	return out, nil
}

// keyID is a key's identity for the output check: format, fingerprint
// and table start.
func keyID(format, fingerprint string, tableStart int) string {
	return format + " " + fingerprint + " @" + strconv.Itoa(tableStart)
}

// scoreMasters counts how many reported masters (hex) were planted and
// how many planted masters were reported.
func scoreMasters(fx *fixture, reported []string) (truePos, recalled int) {
	plantedHex := make(map[string]bool, len(fx.planted))
	for _, p := range fx.planted {
		plantedHex[hex.EncodeToString(p.master)] = true
	}
	seen := make(map[string]bool, len(reported))
	for _, m := range reported {
		if plantedHex[m] {
			truePos++
			if !seen[m] {
				seen[m] = true
				recalled++
			}
		}
	}
	return truePos, recalled
}
