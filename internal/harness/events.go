package harness

import (
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/proxy"
)

// Events synthesizes the canonical wide-event stream of a finished run:
// one fetch event per record (proxy.FetchEvent, the event the client
// emits live), ordered by (virtual start, request ID),
// with wall-clock and other host-measured fields stripped
// (export.Canonicalize). Everything left is pinned by the scenario seed
// — virtual timestamps, wire bytes, attempts, modeled joules — so the
// same seed always yields byte-identical JSONL, which is what the CI
// event-determinism gate diffs and what the calibrator consumes.
//
// Per-class joules are each record's FetchStats.Energy, the charge the
// client computed once from the byte counts: exact model arithmetic
// rather than re-summed span floats, so the stream never wobbles by a
// ULP across runs. Phase timelines (dial, header, recv, backoff, resume —
// the virtual-time phases) come from the clients' span rings.
func (r *Report) Events() []export.Event {
	// The clients were charged at the link's rate row, and the
	// energy-conservation oracle holds them to it.
	rate := r.Scenario.rate()
	evs := make([]export.Event, 0, len(r.Records))
	for _, rec := range r.Records {
		var span obs.SpanData
		if rec.Client < len(r.Spans) && rec.Index < len(r.Spans[rec.Client]) {
			span = r.Spans[rec.Client][rec.Index]
		}
		e := proxy.FetchEvent(span.Attrs["req_id"], rec.Name, rec.Scheme, rec.Mode, rate, rec.Stats, span.Phases, rec.Virtual, rec.Err)
		e.VNS = rec.VStart.Nanoseconds()
		// The link's own rate, which is not its row's when no row matches.
		e.LinkBps = r.Scenario.Link.BytesPerSec
		evs = append(evs, e)
	}
	return export.Canonicalize(evs)
}
