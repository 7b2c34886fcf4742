package obs

import (
	"crypto/rand"
	"encoding/hex"
)

// Distributed trace context. A campaign that spans processes (the fleet
// coordinator and its workers) shares one trace: the coordinator mints a
// TraceID when it plans the campaign, ships it to workers inside the wire
// plan and every shard lease, and workers stamp it on the span trees they
// send back so the coordinator can graft them under the campaign root.
//
// The context is deliberately tiny — an opaque ID plus a parent span — and
// carries no clock: span timestamps stay in each process's own obs.Now
// timebase and are corrected at graft time (see GraftOptions.OffsetNs),
// because a wire-carried absolute clock would reintroduce exactly the
// cross-host skew the offset estimation exists to remove.

// TraceContext identifies one distributed trace and the span to hang
// foreign subtrees under. It is wire-serializable and rides core.WirePlan
// and the shard lease protocol.
type TraceContext struct {
	// TraceID is the campaign-wide trace identifier (16 hex chars).
	TraceID string `json:"trace_id,omitempty"`
	// ParentSpan is the span ID (in the minting process's Collector) that
	// adopted subtrees should be parented under. Zero means "root".
	ParentSpan uint64 `json:"parent_span,omitempty"`
}

// Valid reports whether the context carries a trace ID.
func (tc TraceContext) Valid() bool { return tc.TraceID != "" }

// NewTraceID mints a random 64-bit trace ID as 16 hex characters.
// crypto/rand keeps the noweakrand contract; on the (never observed)
// failure of the system entropy source the ID degrades to a constant,
// which merges traces but never breaks them.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "trace-degraded00"
	}
	return hex.EncodeToString(b[:])
}
