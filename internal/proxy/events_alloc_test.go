//go:build !race

package proxy

// Allocation gates for the event-export hook: a client with no sink
// configured must pay nothing for the telemetry plane — the nil check in
// emitFetchEvent is the entire cost — and one with a sink pays for the
// event alone. Excluded under the race detector, which instruments
// allocations.

import (
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/obs/export"
)

func TestEmitFetchEventNoSinkZeroAlloc(t *testing.T) {
	c := NewClient("127.0.0.1:0")
	stats := FetchStats{RawBytes: 1_000_000, WireBytes: 400_000, BlocksTotal: 8, BlocksCompressed: 8, Attempts: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		c.emitFetchEvent(1, "f", codec.Gzip, ModeSelective, nil, stats, 0, nil)
	})
	if allocs != 0 {
		t.Errorf("emitFetchEvent with nil sink allocated %.1f times per call, want 0", allocs)
	}
}

// TestEmitFetchEventReadsOnlyPhases: the event takes the finished fetch
// span's phases as they are, and builds neither the span's attribute map
// nor its formatted request ID, which it does not carry. What is left is
// the event's own: its request ID and timestamp strings and its folded
// phases. (Reading the span's whole data cost three more.)
func TestEmitFetchEventReadsOnlyPhases(t *testing.T) {
	sink := export.NewSink(nil, 1, 1)
	sink.Close() // Record then only counts a drop: the emit is what is measured
	c := NewClient("127.0.0.1:0")
	c.Events = sink
	span := obs.NewTracer(1).Start("fetch")
	span.SetReqID(1)
	span.SetAttr("name", "f")
	span.SetAttr("scheme", "gzip")
	span.SetAttr("mode", "selective")
	now := time.Now()
	span.Phase("dial", obs.ClassRadio, now, time.Millisecond, 0)
	span.Phase("recv", obs.ClassRadio, now, time.Millisecond, 400_000)
	span.Phase("decompress", obs.ClassCPU, now, time.Millisecond, 0)
	span.Finish()
	stats := FetchStats{RawBytes: 1_000_000, WireBytes: 400_000, BlocksTotal: 8, BlocksCompressed: 8, Attempts: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		c.emitFetchEvent(1, "f", codec.Gzip, ModeSelective, span, stats, 0, nil)
	})
	if allocs > 3 {
		t.Errorf("emitFetchEvent with a sink allocated %.1f times per call, want at most 3", allocs)
	}
}
