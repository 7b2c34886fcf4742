package fleet

import (
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"coldboot/internal/core"
	"coldboot/internal/obs"
)

// TestTelemetryWireCarriesNoMasterBytes pins the secrecy boundary of the
// telemetry channel: the shard-completion body's Keys field is the fleet's
// one sanctioned raw-key egress, but the telemetry document riding the
// same request (span attrs, counter names, histogram names) must never
// carry recovered master bytes in any encoding — only counts, offsets,
// and sha256: fingerprints are allowed to describe keys there.
func TestTelemetryWireCarriesNoMasterBytes(t *testing.T) {
	dump, vera, luksData := buildDecayedDumpOpt(t, false)
	plan, err := core.PlanCampaignSource(context.Background(), core.BytesSource(dump), parityConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer plan.Close()

	// Scan the shards that hold the planted schedules exactly the way a
	// fleet worker does: traced into a lease-scoped collector.
	var masters [][]byte
	col := obs.NewCollector()
	for _, sh := range plan.Shards {
		first, last := sh.FirstBlock*core.BlockBytes, (sh.FirstBlock+sh.Blocks)*core.BlockBytes
		if !(first <= fxVeraStart && fxVeraStart < last) && !(first <= fxLUKSStart && fxLUKSStart < last) {
			continue
		}
		sub := dump[first:last]
		sr, err := plan.ScanShardBytesTraced(context.Background(), sub, sh, col)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range sr.Keys {
			masters = append(masters, append([]byte(nil), k.Master...))
		}
	}
	found := map[string]bool{}
	for _, m := range masters {
		found[string(m)] = true
	}
	if !found[string(vera)] || !found[string(luksData)] {
		t.Fatalf("scan missed planted masters (%d keys); secrecy check would be vacuous", len(masters))
	}

	tel := col.Telemetry()
	if len(tel.Spans) == 0 {
		t.Fatal("no spans in shipped telemetry; secrecy check would be vacuous")
	}
	doc, err := json.Marshal(tel)
	if err != nil {
		t.Fatal(err)
	}
	wire := string(doc)
	for i, m := range masters {
		for enc, s := range map[string]string{
			"hex":       hex.EncodeToString(m),
			"HEX":       strings.ToUpper(hex.EncodeToString(m)),
			"base64":    base64.StdEncoding.EncodeToString(m),
			"base64url": base64.URLEncoding.EncodeToString(m),
			"raw":       string(m),
		} {
			if strings.Contains(wire, s) {
				t.Errorf("telemetry wire document leaks master %d as %s", i, enc)
			}
		}
	}

	// Span attrs that mention keys do so as counts or fingerprints, never
	// as material: every attr value must be short of a 32-byte hex run.
	for _, s := range tel.Spans {
		for _, a := range s.Attrs {
			if len(a.Value) >= 64 && isHexRun(a.Value) {
				t.Errorf("span %q attr %q carries a 64+ char hex string: %q", s.Name, a.Key, a.Value)
			}
			if strings.HasPrefix(a.Value, "sha256:") && len(a.Value) != len("sha256:")+12 {
				t.Errorf("span %q attr %q malformed fingerprint %q", s.Name, a.Key, a.Value)
			}
		}
	}
}

func isHexRun(s string) bool {
	for _, r := range s {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f' || r >= 'A' && r <= 'F') {
			return false
		}
	}
	return len(s) > 0
}
