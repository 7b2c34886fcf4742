package obs

import (
	"sync"
	"testing"
	"time"
)

// TestJournalRecordsEvents: a journaled collector appends every hook, in
// call order, under the span IDs of its own records.
func TestJournalRecordsEvents(t *testing.T) {
	c := NewJournaledCollector(16)
	j := c.Journal()
	sp := c.StartSpan("hunt", A("shard", "0"))
	child := sp.Child("chunk")
	child.End()
	c.Progress("hunt", 1, 10)
	c.Count("pairs", 3)
	c.Observe("chunk_ns", 42)
	sp.SetAttr("keys", "1")
	sp.End()
	sp.End() // idempotent

	events, missed := j.ReadSince(0, 0)
	if missed != 0 {
		t.Fatalf("missed = %d, want 0", missed)
	}
	types := make([]string, len(events))
	for i, e := range events {
		types[i] = e.Type
		if e.Seq != uint64(i+1) {
			t.Fatalf("seq not dense: %+v", events)
		}
	}
	want := []string{"span_start", "span_start", "span_end", "progress", "count", "observe", "span_attr", "span_end"}
	if len(types) != len(want) {
		t.Fatalf("got %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("got %v, want %v", types, want)
		}
	}
	if events[7].WallNs < 0 || events[7].Span != events[0].Span {
		t.Fatalf("span_end payload wrong: %+v", events[7])
	}
	if events[0].Attrs[0].Key != "shard" {
		t.Fatalf("span_start lost attrs: %+v", events[0])
	}
	if events[1].Parent != events[0].Span || events[2].Span != events[1].Span {
		t.Fatalf("child span events not parented: %+v", events[:3])
	}
	recs := c.Spans()
	if len(recs) != 2 || recs[0].ID != events[2].Span || recs[1].ID != events[7].Span ||
		recs[1].DurNs != events[7].WallNs {
		t.Fatalf("events name other spans than the records %+v", recs)
	}
	if events[3].Done != 1 || events[3].Total != 10 || events[4].Delta != 3 || events[5].Value != 42 ||
		events[6].Attrs[0] != A("keys", "1") {
		t.Fatalf("hook payloads wrong: %+v", events[3:7])
	}
}

func TestJournalCursorAndOverwrite(t *testing.T) {
	c := NewJournaledCollector(4)
	j := c.Journal()
	for i := int64(0); i < 10; i++ {
		c.Count("c", i)
	}
	// Only the 4 newest survive; a stale cursor observes the gap.
	events, missed := j.ReadSince(0, 0)
	if len(events) != 4 || missed != 6 {
		t.Fatalf("got %d events missed %d, want 4 and 6", len(events), missed)
	}
	if events[0].Seq != 7 || events[3].Seq != 10 {
		t.Fatalf("ring kept wrong window: %+v", events)
	}
	// Resuming from a live cursor is gap-free and ordered.
	events, missed = j.ReadSince(8, 0)
	if missed != 0 || len(events) != 2 || events[0].Seq != 9 {
		t.Fatalf("resume from 8: events=%+v missed=%d", events, missed)
	}
	// max caps the batch.
	events, _ = j.ReadSince(6, 1)
	if len(events) != 1 || events[0].Seq != 7 {
		t.Fatalf("max=1 wrong: %+v", events)
	}
	// A cursor at the head returns nothing.
	if events, _ := j.ReadSince(10, 0); len(events) != 0 {
		t.Fatalf("head cursor returned %+v", events)
	}
	if lastSeq(j) != 10 {
		t.Fatalf("newest seq = %d, want 10", lastSeq(j))
	}
}

func TestJournalUpdatedWakesReaders(t *testing.T) {
	c := NewJournaledCollector(8)
	j := c.Journal()
	ch := j.Updated()
	select {
	case <-ch:
		t.Fatal("Updated fired before any append")
	default:
	}
	done := make(chan struct{})
	go func() {
		<-ch
		close(done)
	}()
	c.Count("c", 1)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("append did not wake the reader")
	}
	// Close also wakes, and further appends are dropped.
	ch = j.Updated()
	j.Close()
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake the reader")
	}
	j.Close() // safe to repeat
	if !j.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	c.Count("c", 1)
	if lastSeq(j) != 1 {
		t.Fatalf("append after Close changed the journal: newest seq=%d", lastSeq(j))
	}
}

// lastSeq returns the sequence number of the journal's newest event (0
// when empty).
func lastSeq(j *Journal) uint64 {
	events, _ := j.ReadSince(0, 0)
	if len(events) == 0 {
		return 0
	}
	return events[len(events)-1].Seq
}

// TestJournalConcurrent: hooks from many goroutines reach a concurrent
// reader densely numbered, each as an event or as part of a gap.
func TestJournalConcurrent(t *testing.T) {
	c := NewJournaledCollector(64)
	j := c.Journal()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var read uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		var cursor uint64
		for {
			ch := j.Updated()
			events, missed := j.ReadSince(cursor, 0)
			for _, e := range events {
				if e.Seq <= cursor {
					t.Errorf("out-of-order seq %d after cursor %d", e.Seq, cursor)
					return
				}
				cursor = e.Seq
			}
			read += uint64(len(events)) + missed
			select {
			case <-stop:
				events, missed := j.ReadSince(cursor, 0)
				read += uint64(len(events)) + missed
				return
			case <-ch:
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				c.Progress("hunt", int64(i), 500)
			}
		}()
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if read != 2000 {
		t.Fatalf("reader accounted for %d events (read+missed), want 2000", read)
	}
	if got := c.Counters("progress.")["hunt"]; got != 499 {
		t.Fatalf("collector progress mark = %d, want 499", got)
	}
}

func TestJournalDefaultCapacity(t *testing.T) {
	j := NewJournaledCollector(0).Journal()
	if NewCollector().Journal() != nil {
		t.Fatal("plain collector has a journal")
	}
	if cap(j.ring) != defaultJournalCap {
		t.Fatalf("cap = %d, want %d", cap(j.ring), defaultJournalCap)
	}
}
