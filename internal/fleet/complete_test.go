package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"coldboot/internal/aes"
	"coldboot/internal/core"
	"coldboot/internal/format"
)

// malformedBucketCompletion is a completion whose shipped histogram has a
// bucket with a negative upper bound, which a merge would use to index
// past the histogram's 64 buckets. Grafted unchecked, it panics inside the
// board's settle step, the board stays settling, and its campaign never
// finishes.
const malformedBucketCompletion = `{"campaign":"c1","lease":"l1",` +
	`"shard":{"Index":0,"FirstBlock":0,"Blocks":128},"pairs":1,` +
	`"telemetry":{"histograms":[{"name":"hunt.chunk_ns","count":1,"sum":0,"p50":0,"p90":0,"p99":0,` +
	`"buckets":[{"le":-1,"count":1}]}]}}`

// validCompletion is a well-formed completion of lease l1 on a one-shard
// tracing harness: an AES-256 master, a ChaCha20 key and a LUKS2 volume,
// all inside the 128-block shard, plus a worker's telemetry.
func validCompletion() completeRequest {
	sh := core.Shard{Index: 0, FirstBlock: 0, Blocks: 128}
	return completeRequest{
		Campaign: "c1", Lease: "l1", Shard: sh, Pairs: 42,
		Keys: []core.FoundKey{
			{Master: bytes.Repeat([]byte{1}, 32), Variant: aes.AES256, TableStart: 640, Score: 1, Anchors: 2, Format: core.FormatAESXTS},
			{Master: bytes.Repeat([]byte{2}, 32), TableStart: 1024, Score: 1, Anchors: 1, Format: "chacha20"},
		},
		Volumes:   []format.Volume{{Format: "luks2", Offset: 4096, UUID: "u"}},
		Telemetry: workerTelemetry(100),
	}
}

// TestMalformedCompletionRefused: a completion whose telemetry would break
// the graft is refused with 400 before the board books it. Its lease
// stays out to expire, and a good completion still finishes the campaign.
func TestMalformedCompletionRefused(t *testing.T) {
	h := newTracingHarness(t, 1)
	l, ok := h.sess.board.Lease("w1")
	if !ok || l.ID != "l1" {
		t.Fatalf("lease %+v", l)
	}
	if accepted, code := h.post([]byte(malformedBucketCompletion)); accepted || code != 400 {
		t.Fatalf("malformed completion: accepted %v, status %d; want refused with 400", accepted, code)
	}
	if _, alive := h.sess.board.LeaseAlive(l.ID); !alive {
		t.Fatal("refused completion retired its lease")
	}
	if accepted, _ := h.complete(t, validCompletion()); !accepted {
		t.Fatal("good completion after a refused one rejected")
	}
	select {
	case <-h.sess.board.Done():
	default:
		t.Fatal("campaign not finished after its one shard was accepted")
	}
}

// TestCompletionCheckedAgainstLease: every part of a completion is checked
// against the shard its lease names and the campaign's key formats. A
// completion a shard scan could not have produced is refused with 400,
// and one for another shard of the cut is dropped like a stale duplicate.
func TestCompletionCheckedAgainstLease(t *testing.T) {
	for name, c := range map[string]struct {
		mutate func(*completeRequest)
		status int
	}{
		"valid":                 {func(*completeRequest) {}, 200},
		"shard outside cut":     {func(r *completeRequest) { r.Shard.Blocks = 64 }, 400},
		"other shard of cut":    {otherShard, 200},
		"key before shard":      {func(r *completeRequest) { r.Keys[0].TableStart = -1 }, 400},
		"key past shard":        {func(r *completeRequest) { r.Keys[0].TableStart = 128 * core.BlockBytes }, 400},
		"short AES master":      {func(r *completeRequest) { r.Keys[0].Master = r.Keys[0].Master[:16] }, 400},
		"other variant":         {func(r *completeRequest) { r.Keys[0].Variant = aes.AES128 }, 400},
		"long ChaCha20 key":     {func(r *completeRequest) { r.Keys[1].Master = append(r.Keys[1].Master, 0) }, 400},
		"ChaCha20 with variant": {func(r *completeRequest) { r.Keys[1].Variant = aes.AES256 }, 400},
		"key of volume format":  {func(r *completeRequest) { r.Keys[1].Format = "luks2" }, 400},
		"unknown format":        {func(r *completeRequest) { r.Keys[1].Format = "rot13" }, 400},
		"volume past shard":     {func(r *completeRequest) { r.Volumes[0].Offset = 128 * core.BlockBytes }, 400},
		"negative pairs":        {func(r *completeRequest) { r.Pairs = -1 }, 400},
		"more keys than bytes":  {func(r *completeRequest) { r.Keys = make([]core.FoundKey, 128*core.BlockBytes+1) }, 400},
		"bad telemetry":         {func(r *completeRequest) { r.Telemetry.Spans[0].DurNs = -1 }, 400},
	} {
		t.Run(name, func(t *testing.T) {
			h := newTracingHarness(t, 2)
			h.sess.board.Lease("w1")
			req := validCompletion()
			c.mutate(&req)
			accepted, code := h.complete(t, req)
			if code != c.status || accepted != (name == "valid") {
				t.Fatalf("accepted %v, status %d; want status %d", accepted, code, c.status)
			}
			if !accepted && len(trackedSpans(h.col, "")) != 0 {
				t.Fatal("refused completion grafted spans")
			}
		})
	}
}

// otherShard moves a valid completion of shard 0 onto shard 1 of a
// two-shard cut: well-formed, but not what lease l1 was granted.
func otherShard(r *completeRequest) {
	r.Shard = core.Shard{Index: 1, FirstBlock: 128, Blocks: 128}
	for i := range r.Keys {
		r.Keys[i].TableStart += 128 * core.BlockBytes
	}
	r.Volumes[0].Offset += 128 * core.BlockBytes
}

// FuzzCompleteRequest posts arbitrary completion bodies for the one lease
// of a one-shard campaign: decoding, checking, completing and grafting
// must never panic, and a body the board accepts must finish the
// campaign with its spans in the collector's journal.
func FuzzCompleteRequest(f *testing.F) {
	good, err := json.Marshal(validCompletion())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(malformedBucketCompletion))
	f.Add([]byte(`{"campaign":"c1","lease":"l1","shard":{"Index":0,"FirstBlock":0,"Blocks":128}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		h := newTracingHarness(t, 1)
		h.sess.board.Lease("w1")
		accepted, _ := h.post(body)
		if !accepted {
			return
		}
		select {
		case <-h.sess.board.Done():
		default:
			t.Fatal("accepted completion left the campaign unfinished")
		}
		events, _ := h.col.Journal().ReadSince(0, 0)
		ends := 0
		for _, e := range events {
			if e.Type == "span_end" {
				ends++
			}
		}
		if spans := h.col.Spans(); ends != len(spans) {
			t.Fatalf("%d span_end events for %d span records", ends, len(spans))
		}
	})
}
