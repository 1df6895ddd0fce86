package harness

import (
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/obs/export"
)

// Events synthesizes the canonical wide-event stream of a finished run:
// one fetch event per record, ordered by (virtual start, request ID),
// with wall-clock and other host-measured fields stripped
// (export.Canonicalize). Everything left is pinned by the scenario seed
// — virtual timestamps, wire bytes, attempts, modeled joules — so the
// same seed always yields byte-identical JSONL, which is what the CI
// event-determinism gate diffs and what the calibrator consumes.
//
// Per-class joules are recomputed from each record's byte counts with
// the charge rule the client charges spans with (TransferBreakdown): exact
// model arithmetic rather than re-summed span floats, so the stream
// never wobbles by a ULP across runs. Phase timelines (dial, header,
// recv, backoff, resume — the virtual-time phases) come from the
// clients' span rings.
func (r *Report) Events() []export.Event {
	// The soak fleet models the paper's primary configuration; the
	// energy-conservation oracle charges with the same parameter set.
	rate := energy.Rate11Mbps()
	p := rate.Params()
	evs := make([]export.Event, 0, len(r.Records))
	for _, rec := range r.Records {
		var span obs.SpanData
		if rec.Client < len(r.Spans) && rec.Index < len(r.Spans[rec.Client]) {
			span = r.Spans[rec.Client][rec.Index]
		}
		e := export.Event{
			VNS:              rec.VStart.Nanoseconds(),
			Span:             "fetch",
			ReqID:            span.Attrs["req_id"],
			Name:             rec.Name,
			Scheme:           rec.Scheme.String(),
			Mode:             rec.Mode.String(),
			Device:           rate.Device,
			LinkBps:          r.Scenario.Link.BytesPerSec,
			Outcome:          "ok",
			RawBytes:         int64(rec.Raw),
			WireBytes:        int64(rec.Stats.WireBytes),
			Blocks:           rec.Stats.BlocksTotal,
			BlocksCompressed: rec.Stats.BlocksCompressed,
			Attempts:         rec.Stats.Attempts,
			ResumedBytes:     int64(rec.Stats.ResumedBytes),
			DurNS:            rec.Virtual.Nanoseconds(),
			Phases:           export.FoldPhases(span.Phases),
		}
		if rec.Err != "" {
			e.Outcome = rec.Err
		} else {
			bd := p.TransferBreakdown(rec.Raw, rec.Stats.WireBytes, rec.Stats.BlocksCompressed)
			e.RadioJ, e.CPUJ, e.IdleJ = bd.RadioJ, bd.CPUJ, bd.IdleJ
		}
		evs = append(evs, e)
	}
	return export.Canonicalize(evs)
}
