package agg

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
)

func ev(vns int64, scheme, device, outcome string, rawB int64, durNS int64, joules float64) export.Event {
	return export.Event{
		VNS: vns, Span: "fetch", Scheme: scheme, Device: device, Outcome: outcome,
		RawBytes: rawB, WireBytes: rawB / 2, DurNS: durNS, RadioJ: joules,
	}
}

// TestAggregatorWindowsAndKeys: events split into windows by virtual
// offset and into series by (scheme, device); failed events count as
// errors but contribute no bytes or joules; the snapshot comes out
// sorted by (window, scheme, device).
func TestAggregatorWindowsAndKeys(t *testing.T) {
	a := New(time.Second)
	a.Observe(ev(0.5e9, "gzip/selective", "ipaq-11mbps", "ok", 1e6, 10e6, 3.5))
	a.Observe(ev(0.6e9, "gzip/selective", "ipaq-11mbps", "ok", 1e6, 20e6, 3.5))
	a.Observe(ev(0.7e9, "gzip/selective", "ipaq-11mbps", "busy", 1e6, 5e6, 99))
	a.Observe(ev(0.8e9, "bzip2/raw", "ipaq-11mbps", "ok", 2e6, 30e6, 7))
	a.Observe(ev(1.5e9, "gzip/selective", "ipaq-11mbps", "ok", 4e6, 40e6, 14))

	snap := a.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("got %d series, want 3", len(snap))
	}
	// Sorted: window 0 bzip2, window 0 gzip, window 1 gzip.
	if snap[0].Scheme != "bzip2/raw" || snap[0].Index != 0 ||
		snap[1].Scheme != "gzip/selective" || snap[1].Index != 0 ||
		snap[2].Scheme != "gzip/selective" || snap[2].Index != 1 {
		t.Fatalf("order wrong: %+v", snap)
	}
	g0 := snap[1]
	if g0.Count != 3 || g0.Errors != 1 {
		t.Errorf("window 0 gzip count=%d errors=%d, want 3/1", g0.Count, g0.Errors)
	}
	if g0.RawB != 2e6 || g0.Joules != 7 {
		t.Errorf("failed event leaked into totals: rawB=%d joules=%g", g0.RawB, g0.Joules)
	}
	if got := g0.JoulesPerMB(); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("JoulesPerMB = %g, want 3.5", got)
	}
	if g0.Latency.Count != 2 {
		t.Errorf("latency histogram saw %d samples, want 2 (errors excluded)", g0.Latency.Count)
	}
	if g0.Start != 0 || g0.End != time.Second {
		t.Errorf("window 0 spans [%s, %s), want [0s, 1s)", g0.Start, g0.End)
	}
	if snap[2].Start != time.Second {
		t.Errorf("window 1 starts at %s, want 1s", snap[2].Start)
	}

	// Render is a smoke check: one header plus one line per series.
	if lines := strings.Count(Render(snap), "\n"); lines != 4 {
		t.Errorf("Render emitted %d lines, want 4", lines)
	}

	var nilAgg *Aggregator
	nilAgg.Observe(ev(0, "x", "y", "ok", 1, 1, 1))
	if nilAgg.Snapshot() != nil {
		t.Error("nil aggregator must absorb everything")
	}
}

// TestP50P99P999 reads the fleet quantiles through the interpolated
// histogram path.
func TestP50P99P999(t *testing.T) {
	h := obs.NewHistogram(latencyBounds())
	for i := 0; i < 1000; i++ {
		h.Observe(0.004) // all samples inside the (0.002, 0.004] bucket
	}
	p50, p99, p999 := P50P99P999(h.Snapshot())
	if p50 <= 0.002 || p50 > 0.004 || p99 <= p50 || p999 < p99 || p999 > 0.004 {
		t.Errorf("quantiles %g/%g/%g not inside the populated bucket", p50, p99, p999)
	}
	p50, _, _ = P50P99P999(obs.HistogramSnapshot{})
	if !math.IsNaN(p50) {
		t.Errorf("empty distribution p50 = %g, want NaN", p50)
	}
}

// TestPercentile pins nearest-rank: index ⌈q·n⌉−1 clamped into range, 0
// on empty input. Where q·n is an integer that is the ⌊q·n⌋−1 the fleet
// report used to read; where it is not, the sample one rank up — p99 of 4
// samples or of 90 is the largest, not the one below it.
func TestPercentile(t *testing.T) {
	four := []time.Duration{10, 20, 30, 40}
	ninety := make([]time.Duration, 90)
	for i := range ninety {
		ninety[i] = time.Duration(i + 1)
	}
	for _, c := range []struct {
		s    []time.Duration
		q    float64
		want time.Duration
	}{
		// q·n an integer.
		{four, 0, 10}, {four, 0.25, 10}, {four, 0.5, 20}, {four, 0.75, 30}, {four, 1, 40},
		{ninety, 0.5, 45}, {ninety, 0.9, 81}, {ninety, 1, 90},
		// q·n not an integer.
		{four, 0.3, 20}, {four, 0.6, 30}, {four, 0.99, 40}, {four, 0.999, 40},
		{ninety, 0.25, 23}, {ninety, 0.99, 90}, {ninety, 0.999, 90},
	} {
		if got := Percentile(c.s, c.q); got != c.want {
			t.Errorf("Percentile(n=%d, %g) = %d, want %d", len(c.s), c.q, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty Percentile = %d, want 0", got)
	}
}
