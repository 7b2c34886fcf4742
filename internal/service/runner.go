package service

import (
	"context"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"coldboot/internal/aes"
	"coldboot/internal/core"
	"coldboot/internal/dumpfile"
	"coldboot/internal/format"
	"coldboot/internal/jobs"
	"coldboot/internal/obs"
	"coldboot/internal/secret"
)

// dumpJob is the payload behind every analysis job: where the upload was
// spooled and how to attack it.
type dumpJob struct {
	Path        string
	Meta        dumpfile.Metadata
	ImageBytes  int64
	Variant     aes.Variant
	RepairFlips int
	// Formats restricts the hunt to the named target formats (nil = every
	// registered format). Validated against core.KnownFormats at submit.
	Formats []string
	// Reveal, set by submitting with ?reveal=keys, lets the job's raw
	// recovered masters persist in the durable journal (default: the WAL
	// holds fingerprints only, and keys do not survive a restart).
	Reveal bool

	// tel is the job's telemetry; the pool's terminal hook closes its
	// event journal and folds its collector into the daemon's.
	tel *jobTelemetry
}

// jobTelemetry is one job's telemetry, created at submit (or restore) and
// dropped when the job is purged. The job's tracer is col alone: its span
// tree, stage table, progress and counters aggregate there, and its
// journal holds the same hooks as events. The status document, trace
// endpoint and /metrics read the aggregates; the event stream reads the
// journal.
type jobTelemetry struct {
	col *obs.Collector
	// traceID names the job's distributed trace. Minted with the
	// telemetry, so every attempt of the job shares it.
	traceID string
	// folded marks the collector's aggregates as added to the daemon
	// collector (guarded by Server.jmu); /metrics stops adding them itself.
	folded bool
}

// ResultReport is a finished (or interrupted) job's result document.
type ResultReport struct {
	// Partial marks a report from a canceled or failed run: the keys below
	// are everything recovered before the interruption.
	Partial bool `json:"partial,omitempty"`
	// Variant is the AES key size hunted for.
	Variant string `json:"variant"`
	// BlocksScanned and PairsTested are the campaign's work tallies.
	BlocksScanned int   `json:"blocks_scanned"`
	PairsTested   int64 `json:"pairs_tested"`
	// Stride is the inferred key-reuse period in blocks (0 = none).
	Stride int `json:"stride,omitempty"`
	// Coverage is the fraction of address classes with a mined key.
	Coverage float64 `json:"coverage"`
	// Formats tallies recovered keys per target-format tag (absent when
	// nothing was found).
	Formats map[string]int64 `json:"formats,omitempty"`
	// Volumes lists container headers sighted in the dump (e.g. a LUKS2
	// superblock in the page cache) — context for the keys, never secret.
	Volumes []format.Volume `json:"volumes,omitempty"`
	// Keys are the recovered masters, redacted to fingerprints by default.
	Keys []KeyReport `json:"keys"`

	// reveal records the job's submit-time ?reveal=keys choice: it gates
	// what encodeResult persists in the durable journal.
	reveal bool
}

// KeyReport is one recovered AES master key. Master is populated only when
// the caller asked to reveal key material; Fingerprint always is, so
// operators can correlate results across jobs without handling keys.
type KeyReport struct {
	// Format is the target-format tag ("aesxts", "luks2", "chacha20", ...).
	Format string `json:"format"`
	// Volume, for formats that recognize container headers, names the
	// volume the key belongs to (a LUKS2 UUID).
	Volume string `json:"volume,omitempty"`
	// Variant is the AES key size for schedule-derived keys; empty for
	// formats whose keys are not AES schedules.
	Variant     string  `json:"variant,omitempty"`
	TableStart  int     `json:"table_start"`
	Score       float64 `json:"score"`
	Anchors     int     `json:"anchors"`
	Fingerprint string  `json:"fingerprint"`
	Master      string  `json:"master,omitempty"`

	// master owns the key bytes behind the report; only redacted(reveal)
	// copies them out, and wipe zeroes them when the job is purged.
	master *secret.Bytes
}

// redacted returns a copy safe to serialize: key bytes are dropped unless
// reveal is set — the one sanctioned exposure of raw key material, behind
// the caller's explicit ?reveal=keys.
func (r *ResultReport) redacted(reveal bool) *ResultReport {
	out := *r
	out.Keys = make([]KeyReport, len(r.Keys))
	for i, k := range r.Keys {
		k.Master = ""
		if reveal && !k.master.Destroyed() {
			k.Master = hex.EncodeToString(k.master.Reveal())
		}
		out.Keys[i] = k
	}
	return &out
}

// wipe destroys the report's key material. Fingerprints survive, so a
// purged job's identity can still be correlated out of band.
func (r *ResultReport) wipe() {
	if r == nil {
		return
	}
	for i := range r.Keys {
		r.Keys[i].master.Destroy()
	}
}

// runAnalysis is the pool's RunFunc: open the spooled container, verify
// its checksum, and stream the campaign over it, traced into the job's own
// collector. The returned report survives cancellation
// (Partial=true) so a DELETE mid-run still yields whatever keys earlier
// shards recovered.
func (s *Server) runAnalysis(ctx context.Context, j *jobs.Job) (any, error) {
	pl, ok := j.Payload().(*dumpJob)
	if !ok {
		return nil, fmt.Errorf("service: job %s has payload %T, not a dump", j.ID(), j.Payload())
	}
	f, err := dumpfile.Open(pl.Path)
	if err != nil {
		// The spooled file vanishing or failing to open is an environment
		// problem (tmp reaper, disk), not a property of the dump: retry.
		return nil, jobs.Transient(fmt.Errorf("service: opening spooled dump: %w", err))
	}
	defer f.Close()
	if err := f.VerifyChecksum(); err != nil {
		// A checksum mismatch is permanent: the bytes on disk are wrong
		// and will stay wrong.
		return nil, err
	}
	src, err := core.ReaderAtSource(f, f.Size())
	if err != nil {
		return nil, err
	}

	tracer := pl.tel.col
	// One root span per attempt ties every pipeline span in the trace to
	// the job that produced it. The job's trace ID (not one the plan
	// mints) rides the wire plan and every worker's shard spans, so the
	// status document, the spans, and the fleet all name one trace.
	root := tracer.StartSpan("job",
		obs.A("job", j.ID()),
		obs.A("trace", pl.tel.traceID),
		obs.A("variant", pl.Variant.String()),
		obs.A("formats", strings.Join(pl.Formats, ",")),
		obs.A("image_bytes", strconv.FormatInt(pl.ImageBytes, 10)),
		obs.A("repair", strconv.Itoa(pl.RepairFlips)))
	defer root.End()

	cfg := core.CampaignConfig{
		Attack: core.Config{
			Variant:     pl.Variant,
			RepairFlips: pl.RepairFlips,
			Formats:     pl.Formats,
			Tracer:      tracer,
			Span:        root,
		},
		ShardBlocks: s.cfg.ShardBlocks,
		// One shard at a time within a job: concurrent jobs already fill
		// the CPU budget, and sequential shards keep per-job progress
		// strictly ordered.
		Parallel: 1,
		TraceID:  pl.tel.traceID,
	}
	// A coordinator-role server hands the campaign to the worker fleet;
	// both paths are compositions of the same Plan/Scan/Finalize pipeline,
	// so the Result is byte-identical either way.
	runCampaign := core.RunCampaignSource
	if s.coord != nil {
		runCampaign = s.coord.Run
	}
	res, runErr := runCampaign(ctx, src, cfg)
	if res != nil {
		root.SetAttr("keys", strconv.Itoa(len(res.Keys)))
	}
	report := buildReport(pl.Variant, res, runErr != nil)
	report.reveal = pl.Reveal
	return report, runErr
}

// buildReport converts a campaign result (possibly partial) into the
// service's result document.
func buildReport(v aes.Variant, res *core.Result, partial bool) *ResultReport {
	report := &ResultReport{
		Partial: partial,
		Variant: v.String(),
		Keys:    []KeyReport{},
	}
	if res == nil {
		return report
	}
	report.BlocksScanned = res.BlocksScanned
	report.PairsTested = res.PairsTested
	report.Stride = res.Stride
	report.Coverage = res.Coverage
	report.Formats = res.FormatCounts()
	report.Volumes = res.Volumes
	for _, k := range res.Keys {
		master := secret.New(k.Master)
		variant := ""
		if k.Variant != 0 {
			// Zero Variant marks a non-schedule key (e.g. a raw ChaCha20
			// state) — "AES-0" would be a lie.
			variant = k.Variant.String()
		}
		report.Keys = append(report.Keys, KeyReport{
			Format:      k.Format,
			Volume:      k.Volume,
			Variant:     variant,
			TableStart:  k.TableStart,
			Score:       k.Score,
			Anchors:     k.Anchors,
			Fingerprint: master.Fingerprint(),
			master:      master,
		})
	}
	return report
}
