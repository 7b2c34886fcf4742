package core

import (
	"fmt"
	"sort"

	"coldboot/internal/bitutil"
	"coldboot/internal/format"
	"coldboot/internal/obs"
)

// Format-registry integration: which target formats one attack hunts for,
// and how their findings are recorded, deduplicated, tagged, and filtered.
//
// The native AES-schedule hunt (anchored litmus + verify/repair/refine
// over the attack's key directory) stays inside this package and answers
// to the name FormatAESXTS; every other format plugs in as a
// format.Scanner probed over each freshly descrambled block in the
// same single pass. "luks2" is a hybrid: its header recognition is a
// prober, while its VMK keys come from the native AES hunt — two ADJACENT
// schedules (dm-crypt's XTS data+tweak pair) get re-tagged as luks2 and
// stamped with the sighted header's UUID at assemble time.

// FormatAESXTS names the built-in AES key-schedule hunt (the
// VeraCrypt/TrueCrypt XTS posture). It is never registered: the name
// exists even with an empty format registry.
const FormatAESXTS = "aesxts"

// FormatLUKS2 names the LUKS2 VMK format; the core only knows it to apply
// the schedule-pair tagging rule when the scanner is registered and
// enabled.
const FormatLUKS2 = "luks2"

// KnownFormats returns every format name an attack can be asked for: the
// built-in AES hunt plus everything in the format registry, sorted.
func KnownFormats() []string {
	names := format.Names()
	for _, n := range names {
		if n == FormatAESXTS {
			return names
		}
	}
	out := append([]string{FormatAESXTS}, names...)
	sort.Strings(out)
	return out
}

// resolvedFormats is Config.Formats resolved against the registry.
type resolvedFormats struct {
	// aes runs the native AES-schedule hunt (aesxts requested, or luks2 —
	// whose VMKs are AES schedules).
	aes bool
	// luks2 applies the adjacent-schedule-pair VMK tagging rule.
	luks2 bool
	// enabled is the set of formats whose keys survive the final filter.
	enabled map[string]bool
	// probers are the registered scanners to run per descrambled block,
	// in name order.
	probers []format.Scanner
	// names is the sorted enabled-format list (for per-format counters).
	names []string
}

// resolveFormats validates and resolves a Config.Formats list. A nil/empty
// list means every known format.
func resolveFormats(names []string) (resolvedFormats, error) {
	if len(names) == 0 {
		names = KnownFormats()
	}
	rf := resolvedFormats{enabled: make(map[string]bool, len(names))}
	for _, n := range names {
		s, registered := format.Get(n)
		if !registered && n != FormatAESXTS {
			return rf, fmt.Errorf("core: unknown format %q (known: %v)", n, KnownFormats())
		}
		if rf.enabled[n] {
			continue
		}
		rf.enabled[n] = true
		rf.names = append(rf.names, n)
		switch n {
		case FormatAESXTS:
			rf.aes = true
		case FormatLUKS2:
			rf.aes = true
			rf.luks2 = true
		}
		if registered {
			rf.probers = append(rf.probers, s)
		}
	}
	sort.Strings(rf.names)
	sort.Slice(rf.probers, func(i, j int) bool { return rf.probers[i].Name() < rf.probers[j].Name() })
	return rf, nil
}

// formatWidth is the byte footprint one finding of the named format spans,
// used for overlap/alias suppression. AES-schedule formats (including the
// untagged "" of in-flight candidates) span the expanded schedule; other
// formats answer through their registered scanner.
func formatWidth(name string, schedBytes int) int {
	switch name {
	case "", FormatAESXTS, FormatLUKS2:
		return schedBytes
	}
	if s, ok := format.Get(name); ok {
		if w := s.Width(); w > 0 {
			return w
		}
	}
	return schedBytes
}

// descrambleView gives block probers random access to descrambled bytes
// beyond the block in flight: the current block reads from the worker's
// in-progress descramble (honouring the candidate key under test), every
// other block is descrambled on the fly with its directory's best key.
// One view lives per hunt worker, so the fixed scratch keeps the read
// path allocation-free.
type descrambleView struct {
	data      []byte
	directory KeyDirectory
	// curBlock/curDescrambled are the worker's in-flight block.
	curBlock       int
	curDescrambled []byte
	scratch        [BlockBytes]byte
}

func (v *descrambleView) ReadDescrambled(off int, buf []byte) bool {
	if off < 0 || off+len(buf) > len(v.data) {
		return false
	}
	for n := 0; n < len(buf); {
		b := (off + n) / BlockBytes
		in := (off + n) % BlockBytes
		var src []byte
		if b == v.curBlock {
			src = v.curDescrambled
		} else {
			keys := v.directory(b)
			if len(keys) == 0 {
				return false
			}
			bitutil.XORBlock64(v.scratch[:], v.data[b*BlockBytes:(b+1)*BlockBytes], keys[0])
			src = v.scratch[:]
		}
		n += copy(buf[n:], src[in:])
	}
	return true
}

// recordFinding registers one prober finding: nil-Key findings are volume
// sightings, keyed findings join the candidate pool deduplicated by
// (format, key bytes).
func (run *huntRun) recordFinding(f format.Finding) {
	run.mu.Lock()
	defer run.mu.Unlock()
	if f.Key == nil {
		if _, ok := run.volumes[f.Offset]; !ok {
			run.volumes[f.Offset] = format.Volume{Format: f.Format, Offset: f.Offset, UUID: f.Volume}
		}
		return
	}
	//lint:ignore keyflow foundF needs a comparable key; the FoundKey Master copies are the caller-owned result
	k := f.Format + "\x00" + string(f.Key)
	if fk, ok := run.foundF[k]; ok {
		fk.Anchors++
		if f.Score > fk.Score {
			fk.Score = f.Score
			fk.TableStart = f.Offset
		}
		return
	}
	run.foundF[k] = &FoundKey{
		Master:     append([]byte{}, f.Key...),
		TableStart: f.Offset,
		Score:      f.Score,
		Anchors:    1,
		Format:     f.Format,
		Volume:     f.Volume,
	}
}

// sortedVolumes flattens the sighting map in offset order.
func sortedVolumes(m map[int]format.Volume) []format.Volume {
	if len(m) == 0 {
		return nil
	}
	out := make([]format.Volume, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Offset < out[j].Offset })
	return out
}

// tagLUKS2 applies the VMK pairing rule to an assembled key list: two AES
// schedules sitting exactly one schedule apart are dm-crypt's XTS
// data+tweak pair, not two independent VeraCrypt masters. Both halves are
// re-tagged as luks2 and stamped with the UUID of the sighted volume
// header (empty when the page-cache copy of the header was not found or
// did not survive decay).
func tagLUKS2(keys []FoundKey, volumes []format.Volume, schedBytes int) {
	if len(keys) < 2 {
		return
	}
	at := make(map[int]int, len(keys))
	for i, k := range keys {
		if k.Format == FormatAESXTS || k.Format == FormatLUKS2 {
			at[k.TableStart] = i
		}
	}
	uuid := ""
	for _, v := range volumes {
		if v.Format == FormatLUKS2 {
			uuid = v.UUID
			break
		}
	}
	for i := range keys {
		if keys[i].Format != FormatAESXTS && keys[i].Format != FormatLUKS2 {
			continue
		}
		_, above := at[keys[i].TableStart+schedBytes]
		_, below := at[keys[i].TableStart-schedBytes]
		if above || below {
			keys[i].Format = FormatLUKS2
			keys[i].Volume = uuid
		}
	}
}

// filterFormats drops keys whose format was not requested (e.g. a
// luks2-only attack still runs the AES hunt but discards lone schedules).
func filterFormats(keys []FoundKey, rf resolvedFormats) []FoundKey {
	out := keys[:0]
	for _, k := range keys {
		if rf.enabled[k.Format] {
			out = append(out, k)
		}
	}
	return out
}

// emitFormatCounts publishes per-format result counters ("format.<name>.
// candidates", plus "format.luks2.volumes") — zero counts included, so
// every enabled format shows up in progress, /metrics, and the event
// stream even when it found nothing.
func emitFormatCounts(tr obs.Tracer, rf resolvedFormats, res *Result) {
	counts := make(map[string]int64, len(rf.names))
	for _, k := range res.Keys {
		counts[k.Format]++
	}
	for _, name := range rf.names {
		tr.Count("format."+name+".candidates", counts[name])
	}
	if rf.enabled[FormatLUKS2] {
		tr.Count("format."+FormatLUKS2+".volumes", int64(len(res.Volumes)))
	}
}

// FormatCounts tallies the result's keys per format tag.
func (r *Result) FormatCounts() map[string]int64 {
	if len(r.Keys) == 0 {
		return nil
	}
	out := make(map[string]int64)
	for _, k := range r.Keys {
		out[k.Format]++
	}
	return out
}
