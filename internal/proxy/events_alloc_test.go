//go:build !race

package proxy

// Allocation gate for the event-export hook: a client with no sink
// configured must pay nothing for the telemetry plane — the nil check in
// emitFetchEvent is the entire cost. Excluded under the race detector,
// which instruments allocations.

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/energy"
)

func TestEmitFetchEventNoSinkZeroAlloc(t *testing.T) {
	c := NewClient("127.0.0.1:0")
	stats := FetchStats{RawBytes: 1_000_000, WireBytes: 400_000, BlocksTotal: 8, BlocksCompressed: 8, Attempts: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		c.emitFetchEvent(1, "f", codec.Gzip, ModeSelective, nil, stats, 0, energy.Breakdown{}, nil)
	})
	if allocs != 0 {
		t.Errorf("emitFetchEvent with nil sink allocated %.1f times per call, want 0", allocs)
	}
}
