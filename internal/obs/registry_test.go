package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrentHammer drives counters, gauges and a histogram
// from many goroutines (run under -race by scripts/ci.sh) and checks the
// final totals reconcile exactly.
func TestRegistryConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 16, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every goroutine re-resolves its instruments, exercising the
			// get-or-create fast path concurrently with creation.
			c := reg.Counter("hits_total", "hammered counter")
			g := reg.Gauge("active", "hammered gauge")
			h := reg.Histogram("latency_seconds", "hammered histogram", []float64{0.25, 0.5, 0.75})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%4) / 4.0) // 0, .25, .5, .75 round-robin
			}
		}(w)
	}
	wg.Wait()

	total := int64(workers * perWorker)
	if got := reg.Counter("hits_total", "").Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := reg.Gauge("active", "").Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	hs := reg.Histogram("latency_seconds", "", nil).Snapshot()
	if hs.Count != total {
		t.Errorf("histogram count = %d, want %d", hs.Count, total)
	}
	// Snapshot consistency: the reported count is the sum of its buckets.
	var sum int64
	for _, c := range hs.Counts {
		sum += c
	}
	if sum != hs.Count {
		t.Errorf("sum of buckets %d != count %d", sum, hs.Count)
	}
	// 0 and .25 land in bucket le=0.25; .5 in le=0.5; .75 in le=0.75.
	want := []int64{total / 2, total / 4, total / 4, 0}
	for i, c := range hs.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	wantSum := float64(workers) * perWorker / 4 * (0 + 0.25 + 0.5 + 0.75)
	if math.Abs(hs.Sum-wantSum) > 1e-6 {
		t.Errorf("histogram sum = %g, want %g", hs.Sum, wantSum)
	}
}

// TestHistogramBucketEdges pins the le (inclusive upper bound) semantics.
func TestHistogramBucketEdges(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "", []float64{1, 2})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3} {
		h.Observe(v)
	}
	hs := h.Snapshot()
	want := []int64{2, 2, 1} // le=1: {0.5, 1}; le=2: {1.5, 2}; overflow: {3}
	for i, c := range hs.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
}

// TestPrometheusGolden pins the text exposition format byte for byte.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests_total", "Requests served.").Add(42)
	reg.Gauge("conns_active", "Open connections.").Set(3)
	h := reg.Histogram("conn_seconds", "Connection wall time.", []float64{0.001, 0.5})
	h.Observe(0.0005)
	h.Observe(0.25)
	h.Observe(0.25)
	h.Observe(9)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	const golden = `# HELP requests_total Requests served.
# TYPE requests_total counter
requests_total 42
# HELP conns_active Open connections.
# TYPE conns_active gauge
conns_active 3
# HELP conn_seconds Connection wall time.
# TYPE conn_seconds histogram
conn_seconds_bucket{le="0.001"} 1
conn_seconds_bucket{le="0.5"} 3
conn_seconds_bucket{le="+Inf"} 4
conn_seconds_sum 9.5005
conn_seconds_count 4
`
	if got := buf.String(); got != golden {
		t.Errorf("prometheus text mismatch:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

// TestNilInstruments: every instrument and the registry itself absorb all
// operations when nil, so call sites never branch on telemetry being
// wired.
func TestNilInstruments(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x", "")
	g := reg.Gauge("x", "")
	h := reg.Histogram("x", "", []float64{1})
	c.Inc()
	c.Add(5)
	g.Set(2)
	g.Add(-1)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil instruments must read zero")
	}
	if s := reg.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

// TestRegistryKindConflictPanics: one name, two kinds is a programming
// error the registry must refuse loudly.
func TestRegistryKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Error("expected panic registering a counter name as a gauge")
		}
	}()
	reg.Gauge("m", "")
}

// TestMetricNameValidation rejects names Prometheus would refuse.
func TestMetricNameValidation(t *testing.T) {
	reg := NewRegistry()
	for _, bad := range []string{"", "9leading", "has-dash", "has space", "dotted.name"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q: expected panic", bad)
				}
			}()
			reg.Counter(bad, "")
		}()
	}
	reg.Counter("ok_name_2", "") // must not panic
}

// TestPrometheusFloatFormat pins the shortest-round-trip float rendering
// used for bounds and sums.
func TestPrometheusFloatFormat(t *testing.T) {
	for v, want := range map[float64]string{0.001: "0.001", 2.5: "2.5", 10: "10"} {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if !strings.Contains(formatFloat(1e21), "e+21") {
		t.Errorf("large floats should use scientific notation, got %q", formatFloat(1e21))
	}
}
