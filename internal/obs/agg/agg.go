// Package agg is the windowed-aggregation stage of the telemetry
// pipeline: it rolls a wide-event stream (internal/obs/export) into
// fixed-width time windows keyed by (scheme, device class), reusing the
// obs Histogram for per-window latency and joules-per-MB distributions.
// Windows are cut on whichever timeline the events carry — virtual
// nanoseconds on canonical soak streams, wall offsets on live ones — and
// snapshots come out fully sorted, so a rollup of a deterministic stream
// is itself deterministic.
//
// The package also owns the repository's quantile math: the exact
// sample-based Percentile the soak's fleet report prints, and the
// interpolated HistogramSnapshot.Quantile wrappers (P50/P99/P999) for
// bucketed distributions.
package agg

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
)

// Key identifies one rollup series inside a window.
type Key struct {
	Scheme string
	Device string
}

// latencyBounds covers 1 ms .. ~2 min of per-fetch latency, doubling.
func latencyBounds() []float64 {
	out := make([]float64, 0, 18)
	for ms := 1.0; ms <= 131072; ms *= 2 {
		out = append(out, ms/1e3)
	}
	return out
}

// jPerMBBounds spans the model's range: a well-compressed interleaved
// transfer lands near 1 J/MB, a plain 11 Mb/s download at 3.5, and a
// 2 Mb/s one near 12.
var jPerMBBounds = []float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 5, 6, 8, 12, 20}

// cell accumulates one (window, key) series.
type cell struct {
	count   int64
	errors  int64
	rawB    int64
	wireB   int64
	joules  float64
	latency *obs.Histogram
	jPerMB  *obs.Histogram
}

// Aggregator rolls events into fixed-width windows. All methods are safe
// for concurrent use; a nil *Aggregator absorbs everything.
type Aggregator struct {
	width time.Duration

	mu    sync.Mutex
	cells map[int64]map[Key]*cell
}

// New returns an aggregator cutting windows of the given width; a
// width ≤ 0 cuts 1 s windows, so index arithmetic never divides by zero.
func New(width time.Duration) *Aggregator {
	if width <= 0 {
		width = time.Second
	}
	return &Aggregator{width: width, cells: make(map[int64]map[Key]*cell)}
}

// Observe rolls one event into the window containing its virtual start
// offset. Live callers with no virtual epoch use ObserveAt with a wall
// offset of their choosing.
func (a *Aggregator) Observe(e export.Event) {
	a.ObserveAt(time.Duration(e.VNS), e)
}

// ObserveAt rolls one event into the window containing offset at.
func (a *Aggregator) ObserveAt(at time.Duration, e export.Event) {
	if a == nil {
		return
	}
	k := Key{Scheme: e.Scheme, Device: e.Device}
	// Floor division: an offset before zero belongs to window −1, not to
	// window 0 with the offsets after it.
	idx := int64(at / a.width)
	if at%a.width < 0 {
		idx--
	}
	a.mu.Lock()
	byKey := a.cells[idx]
	if byKey == nil {
		byKey = make(map[Key]*cell)
		a.cells[idx] = byKey
	}
	c := byKey[k]
	if c == nil {
		c = &cell{
			latency: obs.NewHistogram(latencyBounds()),
			jPerMB:  obs.NewHistogram(jPerMBBounds),
		}
		byKey[k] = c
	}
	c.count++
	failed := e.Outcome != "ok" && e.Outcome != ""
	var j float64
	if failed {
		c.errors++
	} else {
		c.rawB += e.RawBytes
		c.wireB += e.WireBytes
		j = e.TotalJoules()
		c.joules += j
	}
	a.mu.Unlock()
	if failed {
		return
	}
	// Histograms are internally atomic; observe outside the map lock.
	c.latency.Observe(time.Duration(e.DurNS).Seconds())
	if mb := float64(e.RawBytes) / 1e6; mb > 0 && j > 0 {
		c.jPerMB.Observe(j / mb)
	}
}

// WindowSnapshot is one (window, key) series materialised.
type WindowSnapshot struct {
	// Index is the window ordinal; the window spans [Start, End).
	Index      int64
	Start, End time.Duration
	Scheme     string
	Device     string

	// Count is all events observed; Errors the non-ok subset. Bytes and
	// joules cover successful events only.
	Count  int64
	Errors int64
	RawB   int64
	WireB  int64
	Joules float64

	// Latency is the per-fetch duration distribution (seconds); JPerMB
	// the joules-per-raw-MB distribution.
	Latency obs.HistogramSnapshot
	JPerMB  obs.HistogramSnapshot
}

// JoulesPerMB is the window's aggregate energy cost of delivery.
func (w WindowSnapshot) JoulesPerMB() float64 {
	if w.RawB == 0 {
		return 0
	}
	return w.Joules / (float64(w.RawB) / 1e6)
}

// Snapshot materialises every window, sorted by (window index, scheme,
// device) — a deterministic order for deterministic inputs.
func (a *Aggregator) Snapshot() []WindowSnapshot {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []WindowSnapshot
	for idx, byKey := range a.cells {
		for k, c := range byKey {
			out = append(out, WindowSnapshot{
				Index:  idx,
				Start:  time.Duration(idx) * a.width,
				End:    time.Duration(idx+1) * a.width,
				Scheme: k.Scheme,
				Device: k.Device,
				Count:  c.count,
				Errors: c.errors,
				RawB:   c.rawB,
				WireB:  c.wireB,
				Joules: c.joules,

				Latency: c.latency.Snapshot(),
				JPerMB:  c.jPerMB.Snapshot(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Index != out[j].Index {
			return out[i].Index < out[j].Index
		}
		if out[i].Scheme != out[j].Scheme {
			return out[i].Scheme < out[j].Scheme
		}
		return out[i].Device < out[j].Device
	})
	return out
}

// Render prints the rollup as a fixed-width text table, one line per
// (window, scheme, device) series.
func Render(windows []WindowSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-18s %-12s %6s %4s %9s %8s %8s %8s %8s\n",
		"window", "scheme", "device", "n", "err", "rawMB", "J/MB", "p50ms", "p99ms", "p999ms")
	for _, w := range windows {
		p50, p99, p999 := P50P99P999(w.Latency)
		fmt.Fprintf(&b, "%-12s %-18s %-12s %6d %4d %9.3f %8.3f %8.1f %8.1f %8.1f\n",
			w.Start.String(), w.Scheme, w.Device, w.Count, w.Errors,
			float64(w.RawB)/1e6, w.JoulesPerMB(), p50*1e3, p99*1e3, p999*1e3)
	}
	return b.String()
}

// P50P99P999 reads the three fleet-report quantiles from a bucketed
// distribution (interpolated; NaN on an empty histogram).
func P50P99P999(h obs.HistogramSnapshot) (p50, p99, p999 float64) {
	return h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999)
}

// Percentile reads the nearest-rank q-quantile from an ascending sample
// slice — the smallest sample at or above a q fraction of them, index
// ⌈q·n⌉−1 — the exact (non-interpolated) form fleet reports use for
// virtual latencies. An empty slice returns 0.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
