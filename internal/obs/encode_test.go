package obs

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

// TestPrometheusHistogramRoundTrip re-parses the rendered text and checks
// it reconstructs the snapshot exactly: cumulative le-buckets must match
// the disjoint counts' running sum, +Inf must equal the total count, and
// _sum/_count must round-trip through the float formatter.
func TestPrometheusHistogramRoundTrip(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h_seconds", "", []float64{0.001, 0.5, 8})
	for _, v := range []float64{0.0005, 0.25, 0.25, 3, 100} {
		h.Observe(v)
	}
	snap := reg.Snapshot().Histograms[0]

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	bucketRe := regexp.MustCompile(`(?m)^h_seconds_bucket\{le="([^"]+)"\} (\d+)$`)
	matches := bucketRe.FindAllStringSubmatch(text, -1)
	if len(matches) != len(snap.Bounds)+1 {
		t.Fatalf("found %d bucket lines, want %d:\n%s", len(matches), len(snap.Bounds)+1, text)
	}
	var cum int64
	for i, m := range matches {
		got, _ := strconv.ParseInt(m[2], 10, 64)
		if i < len(snap.Bounds) {
			cum += snap.Counts[i]
			le, err := strconv.ParseFloat(m[1], 64)
			if err != nil || le != snap.Bounds[i] {
				t.Errorf("bucket %d le = %q, want %v", i, m[1], snap.Bounds[i])
			}
			if got != cum {
				t.Errorf("bucket le=%s = %d, want cumulative %d", m[1], got, cum)
			}
		} else {
			if m[1] != "+Inf" {
				t.Errorf("last bucket le = %q, want +Inf", m[1])
			}
			if got != snap.Count {
				t.Errorf("+Inf bucket = %d, want count %d", got, snap.Count)
			}
		}
	}

	sumRe := regexp.MustCompile(`(?m)^h_seconds_sum (\S+)$`)
	sum, err := strconv.ParseFloat(sumRe.FindStringSubmatch(text)[1], 64)
	if err != nil || sum != snap.Sum {
		t.Errorf("_sum = %v (err %v), want %v", sum, err, snap.Sum)
	}
	countRe := regexp.MustCompile(`(?m)^h_seconds_count (\d+)$`)
	count, _ := strconv.ParseInt(countRe.FindStringSubmatch(text)[1], 10, 64)
	if count != snap.Count {
		t.Errorf("_count = %d, want %d", count, snap.Count)
	}
}
