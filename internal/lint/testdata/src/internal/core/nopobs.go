package core

import "coldboot/internal/obs"

// scanInstrumented is the PR 5 contract in fixture form: a per-block hot
// loop carrying full telemetry (span attrs, per-chunk Observe, Progress)
// through the Nop tracer must stay finding-free — the instrumentation
// neither allocates in the loop nor reads the wall clock, so tracing-off
// costs nothing. No want markers: nothing here may fire.
func scanInstrumented(image []byte, tr obs.Tracer) int {
	if tr == nil {
		tr = obs.Nop
	}
	sp := tr.StartSpan("hunt.worker", obs.A("offset", "0x0"))
	defer sp.End()
	hits := 0
	total := int64(len(image) / 64)
	for b := 0; b < len(image)/64; b++ {
		start := obs.Now()
		chunk := image[b*64 : (b+1)*64]
		if chunk[0] != 0 {
			hits++
		}
		tr.Observe("hunt.verify_ns", obs.Since(start))
		tr.Progress("hunt", int64(b+1), total)
	}
	return hits
}

var _ = scanInstrumented
