package service

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"coldboot/internal/fleet"
)

// TestEventStreamIsCollectorView runs one job per role and reads each
// finished job's event stream against its collector, which the status
// document, the trace endpoint and /metrics read: the stream's span_end
// events name exactly the collector's span records, which are exactly
// the spans the trace endpoint serves, and every counter but the
// progress marks is the sum of its count events. On a coordinator that
// includes the spans and counters grafted from the workers' shards. The
// stream is also well nested: a span's start precedes its attrs, its
// children and its end.
func TestEventStreamIsCollectorView(t *testing.T) {
	for _, role := range []string{RoleCoordinator, RoleStandalone} {
		t.Run(role, func(t *testing.T) {
			master := testMaster(73)
			container := buildFixtureContainer(t, 1<<20, 73, master, 1024*64, false)
			svc, ts := testServer(t, Config{
				Workers:     1,
				Role:        role,
				LeaseTTL:    5 * time.Second,
				ShardBlocks: 4096,
				EventBuffer: 1 << 18,
			})
			if role == RoleCoordinator {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				for i := 1; i <= 2; i++ {
					go (&fleet.Worker{Base: ts.URL, Name: "w-" + strconv.Itoa(i)}).Run(ctx)
				}
			}
			code, doc := postDump(t, ts, "", container)
			if code != http.StatusCreated {
				t.Fatalf("submit: HTTP %d: %v", code, doc)
			}
			id := doc["id"].(string)
			pollUntil(t, ts, id, 120*time.Second, inState("done"))

			resp := openEvents(t, ts, id, 0)
			lines := readStream(t, resp.Body, nil)
			resp.Body.Close()

			type spanKey struct {
				id   uint64
				name string
			}
			started := map[uint64]string{}
			var ended []spanKey
			counts := map[string]int64{}
			for _, ln := range lines {
				switch ln.Type {
				case "gap":
					t.Fatalf("stream skipped %d events despite a %d-event buffer", ln.Skipped, 1<<18)
				case "span_start":
					if _, dup := started[ln.Span]; dup || ln.Span == 0 {
						t.Fatalf("span_start %q reuses span id %d", ln.Name, ln.Span)
					}
					if _, ok := started[ln.Parent]; ln.Parent != 0 && !ok {
						t.Fatalf("span_start %q names parent %d before it started", ln.Name, ln.Parent)
					}
					started[ln.Span] = ln.Name
				case "span_attr", "span_end":
					if name, ok := started[ln.Span]; !ok || name != ln.Name {
						t.Fatalf("%s %q for span %d, which started as %q", ln.Type, ln.Name, ln.Span, name)
					}
					if ln.Type == "span_end" {
						ended = append(ended, spanKey{ln.Span, ln.Name})
					}
				case "count":
					counts[ln.Name] += ln.Delta
				}
			}

			tel := svc.telemetryOf(id)
			var recorded []spanKey
			for _, s := range tel.col.Spans() {
				recorded = append(recorded, spanKey{s.ID, s.Name})
			}
			var traced []spanKey
			for _, e := range fetchTrace(t, ts, id) {
				if e.Ph == "X" {
					id, _ := strconv.ParseUint(e.Args["span"], 10, 64)
					traced = append(traced, spanKey{id, e.Name})
				}
			}
			byID := func(s []spanKey) []spanKey {
				sort.Slice(s, func(i, j int) bool { return s[i].id < s[j].id })
				return s
			}
			ended, recorded, traced = byID(ended), byID(recorded), byID(traced)
			if len(ended) != len(recorded) || len(traced) != len(recorded) {
				t.Fatalf("%d span_end events, %d span records, %d trace spans", len(ended), len(recorded), len(traced))
			}
			for i := range recorded {
				if ended[i] != recorded[i] || traced[i] != recorded[i] {
					t.Fatalf("span %d: stream %+v, collector %+v, trace %+v", i, ended[i], recorded[i], traced[i])
				}
			}
			hunts := 0
			for _, k := range recorded {
				if k.name == "hunt" {
					hunts++
				}
			}
			if role == RoleCoordinator && hunts == 0 {
				t.Error("coordinator job's collector holds no grafted hunt span")
			}

			counters := tel.col.Summary().Counters
			for name, v := range counters {
				if !strings.HasPrefix(name, "progress.") && counts[name] != v {
					t.Errorf("counter %s = %d, its count events sum to %d", name, v, counts[name])
				}
			}
			for name := range counts {
				if _, ok := counters[name]; !ok {
					t.Errorf("count events for %s, which the collector does not hold", name)
				}
			}
		})
	}
}
