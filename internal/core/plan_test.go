package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"coldboot/internal/aes"
	"coldboot/internal/obs"
)

// smallWirePlan is a hand-built plan small enough to mutate field by
// field: two keys sighted 8 blocks apart, so its stride is 8.
func smallWirePlan() *WirePlan {
	key := func(seed int64) []byte { return testMaster(seed, BlockBytes) }
	return &WirePlan{
		Variant:     aes.AES256,
		Formats:     []string{FormatAESXTS},
		RepairFlips: 1,
		Stride:      8,
		TotalBlocks: 64,
		Trace:       obs.TraceContext{TraceID: "00c0ffee00c0ffee", ParentSpan: 7},
		Mine: &MineResult{
			BlocksScanned: 64,
			BlocksPassed:  5,
			Keys: []MinedKey{
				{Key: key(1), Count: 3, Positions: []int{1, 9, 17}},
				{Key: key(2), Count: 2, Positions: []int{4, 12}},
			},
		},
	}
}

func TestWirePlanCodecRoundTrip(t *testing.T) {
	want := smallWirePlan()
	frame, err := EncodeWirePlan(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWirePlan(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got  %+v\n want %+v", got, want)
	}
	if _, err := PlanFromWire(got, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeWirePlanRejects holds the decoder to every bound and
// invariant it promises, on frames built by the unchecked appendWirePlan
// or patched byte by byte.
func TestDecodeWirePlanRejects(t *testing.T) {
	valid := appendWirePlan(nil, smallWirePlan())
	// The header up to and including the key count, for patching it.
	noKeys := smallWirePlan()
	noKeys.Mine.Keys = nil
	header := appendWirePlan(nil, noKeys)
	withKeyCount := func(n uint64) []byte {
		b := binary.AppendUvarint(bytes.Clone(header[:len(header)-1]), n)
		return append(b, valid[len(header):]...)
	}
	mutated := func(edit func(w *WirePlan)) []byte {
		w := smallWirePlan()
		edit(w)
		return appendWirePlan(nil, w)
	}
	cases := map[string][]byte{
		"empty":            nil,
		"bad magic":        append([]byte("CBWQ"), valid[4:]...),
		"unknown version":  append(append([]byte("CBWP"), wirePlanVersion+1), valid[5:]...),
		"unknown variant":  mutated(func(w *WirePlan) { w.Variant = 100 }),
		"unknown format":   mutated(func(w *WirePlan) { w.Formats = []string{"nosuch"} }),
		"trailing byte":    append(bytes.Clone(valid), 0),
		"total blocks":     mutated(func(w *WirePlan) { w.TotalBlocks = maxWireBlocks + 1 }),
		"scanned":          mutated(func(w *WirePlan) { w.Mine.BlocksScanned = w.TotalBlocks + 1 }),
		"key count":        withKeyCount(1000),
		"passed too small": mutated(func(w *WirePlan) { w.Mine.BlocksPassed = 4 }),
		"position range":   mutated(func(w *WirePlan) { w.Mine.Keys[0].Positions[2] = 64 }),
		"repeated":         mutated(func(w *WirePlan) { w.Mine.Keys[0].Positions[1] = 1 }),
		"descending":       mutated(func(w *WirePlan) { w.Mine.Keys[0].Positions[1] = 0 }),
		"two owners":       mutated(func(w *WirePlan) { w.Mine.Keys[1].Positions[0] = 9 }),
		"count over":       mutated(func(w *WirePlan) { w.Mine.Keys[0].Count = 4 }),
		"count under":      mutated(func(w *WirePlan) { w.Mine.Keys[0].Count = 2 }),
		"no positions": mutated(func(w *WirePlan) {
			w.Mine.Keys[1].Count, w.Mine.Keys[1].Positions = 0, nil
		}),
		"short key":    mutated(func(w *WirePlan) { w.Mine.Keys[0].Key = w.Mine.Keys[0].Key[:63] }),
		"long key":     mutated(func(w *WirePlan) { w.Mine.Keys[1].Key = append(w.Mine.Keys[1].Key, 0) }),
		"wrong stride": mutated(func(w *WirePlan) { w.Stride = 4 }),
	}
	for v := byte(1); v < wirePlanVersion; v++ {
		cases["retired version "+strconv.Itoa(int(v))] = append(append([]byte("CBWP"), v), valid[5:]...)
	}
	for n := range len(valid) {
		cases["truncated to "+strconv.Itoa(n)] = valid[:n]
	}
	for name, frame := range cases {
		if w, err := DecodeWirePlan(frame); err == nil {
			t.Errorf("%s: accepted: %+v", name, w)
		}
	}
	if _, err := DecodeWirePlan(valid); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
}

// TestEncodeWirePlanRejects: the encoder refuses what no decoder would
// take back, instead of shipping it.
func TestEncodeWirePlanRejects(t *testing.T) {
	for name, edit := range map[string]func(w *WirePlan){
		"no mine":     func(w *WirePlan) { w.Mine = nil },
		"variant":     func(w *WirePlan) { w.Variant = 0 },
		"blocks":      func(w *WirePlan) { w.TotalBlocks = maxWireBlocks + 1 },
		"short key":   func(w *WirePlan) { w.Mine.Keys[0].Key = w.Mine.Keys[0].Key[:63] },
		"count":       func(w *WirePlan) { w.Mine.Keys[0].Count = 4 },
		"long trace":  func(w *WirePlan) { w.Trace.TraceID = string(make([]byte, maxWireSmall+1)) },
		"repair over": func(w *WirePlan) { w.RepairFlips = maxWireSmall + 1 },
	} {
		w := smallWirePlan()
		edit(w)
		if _, err := EncodeWirePlan(w); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// TestPlanFromWireLongStride: a frame of a hundred-odd bytes whose one key
// is sighted at the first and last of 2^22 blocks gives a stride of
// 2^22-1. Decoding it and building the worker plan must cost memory in
// proportion to the frame, not the stride: the decoder's position bitset
// (TotalBlocks/8 bytes) and little more, where a table of the stride
// would take about 160 MiB.
func TestPlanFromWireLongStride(t *testing.T) {
	const blocks = 1 << 22
	w := smallWirePlan()
	w.TotalBlocks = blocks
	w.Stride = blocks - 1
	w.Mine = &MineResult{BlocksScanned: blocks, BlocksPassed: 2, Keys: []MinedKey{
		{Key: testMaster(3, BlockBytes), Count: 2, Positions: []int{0, blocks - 1}},
	}}
	frame, err := EncodeWirePlan(w)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := DecodeWirePlan(frame)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PlanFromWire(got, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	defer p.Close()
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > blocks/8+1<<20 {
		t.Fatalf("a %d-byte frame allocated %d bytes", len(frame), alloc)
	}
	// Both sightings fall in residue 0.
	if p.Coverage != 1/float64(w.Stride) {
		t.Fatalf("coverage %v, want 1 residue of %d", p.Coverage, w.Stride)
	}
}

// TestScanShardBytesRejectsMisfit: a shard that does not lie inside the
// plan's blocks, or bytes that are not exactly the shard, are refused
// rather than indexing the plan's skip set out of range — a fleet worker
// takes both from the coordinator.
func TestScanShardBytesRejectsMisfit(t *testing.T) {
	p, err := PlanFromWire(smallWirePlan(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for name, sh := range map[string]Shard{
		"past the end": {FirstBlock: 60, Blocks: 8},
		"negative":     {FirstBlock: -8, Blocks: 8},
	} {
		if _, err := p.ScanShardBytes(context.Background(), make([]byte, sh.Blocks*BlockBytes), sh, nil); err == nil {
			t.Errorf("%s: shard %+v scanned", name, sh)
		}
	}
	sh := Shard{FirstBlock: 8, Blocks: 8}
	if _, err := p.ScanShardBytes(context.Background(), make([]byte, 7*BlockBytes), sh, nil); err == nil {
		t.Error("short shard bytes scanned")
	}
	if _, err := p.ScanShardBytes(context.Background(), make([]byte, 8*BlockBytes), sh, nil); err != nil {
		t.Errorf("fitting shard refused: %v", err)
	}
}
