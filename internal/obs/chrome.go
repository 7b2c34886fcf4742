package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// chromeEvent is one Trace Event in the Chrome/Perfetto JSON format. Spans
// are emitted as "X" (complete) events with microsecond timestamps; the
// span tree's root ID becomes the thread ID so each root span (attack,
// campaign, job) renders as its own track. Named tracks (SpanRecord.Track,
// set on grafted fleet telemetry) get synthetic thread IDs plus "M"
// thread_name metadata events, so a merged distributed trace shows a
// coordinator lane and one labelled lane per worker.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the collected spans as Chrome Trace Event JSON,
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTraceSpans(w, c.Spans())
}

// WriteChromeTraceSpans writes an arbitrary span set (e.g. a daemon's own
// spans together with those of every job it retains) as Chrome Trace
// Event JSON.
// Events are sorted by start time so ts is monotonic.
func WriteChromeTraceSpans(w io.Writer, spans []SpanRecord) error {
	spans = append([]SpanRecord(nil), spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })

	// Named tracks take synthetic thread IDs above every span-derived one,
	// in first-appearance order; unnamed spans keep tid = tree root as
	// always. Metadata events are emitted only when named tracks exist, so
	// single-process traces stay byte-stable.
	var maxID uint64
	for _, s := range spans {
		if s.ID > maxID {
			maxID = s.ID
		}
		if s.Root > maxID {
			maxID = s.Root
		}
	}
	trackTid := make(map[string]uint64)
	var trackOrder []string
	bareTids := make(map[uint64]bool)
	var bareOrder []uint64
	tidOf := func(s SpanRecord) uint64 {
		if s.Track == "" {
			if !bareTids[s.Root] {
				bareTids[s.Root] = true
				bareOrder = append(bareOrder, s.Root)
			}
			return s.Root
		}
		tid, ok := trackTid[s.Track]
		if !ok {
			tid = maxID + 1 + uint64(len(trackOrder))
			trackTid[s.Track] = tid
			trackOrder = append(trackOrder, s.Track)
		}
		return tid
	}

	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		args := make(map[string]string, len(s.Attrs)+2)
		args["span"] = strconv.FormatUint(s.ID, 10)
		if s.Parent != 0 {
			args["parent"] = strconv.FormatUint(s.Parent, 10)
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  "pipeline",
			Ph:   "X",
			Ts:   float64(s.StartNs) / 1e3,
			Dur:  float64(s.DurNs) / 1e3,
			Pid:  1,
			Tid:  tidOf(s),
			Args: args,
		})
	}
	if len(trackOrder) > 0 {
		meta := make([]chromeEvent, 0, len(trackOrder)+len(bareOrder))
		for _, tid := range bareOrder {
			meta = append(meta, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]string{"name": "coordinator"},
			})
		}
		for _, track := range trackOrder {
			meta = append(meta, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: trackTid[track],
				Args: map[string]string{"name": track},
			})
		}
		events = append(meta, events...)
	}
	data, err := json.MarshalIndent(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
