package obs

import (
	"fmt"
	"io"
	"strconv"
)

// WritePrometheus renders a registry snapshot in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative le-labelled buckets with _sum and
// _count series. Output is deterministic: metrics appear sorted by name
// within each kind, counters first, then gauges, then histograms.
func WritePrometheus(w io.Writer, s Snapshot) error {
	for _, m := range s.Counters {
		if err := writeScalar(w, m, "counter"); err != nil {
			return err
		}
	}
	for _, m := range s.Gauges {
		if err := writeScalar(w, m, "gauge"); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if err := writeHistogram(w, h); err != nil {
			return err
		}
	}
	return nil
}

func writeScalar(w io.Writer, m MetricSnapshot, kind string) error {
	if m.Help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", m.Name, kind, m.Name, m.Value)
	return err
}

func writeHistogram(w io.Writer, h HistogramSnapshot) error {
	if h.Help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", h.Name, h.Help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", h.Name); err != nil {
		return err
	}
	// Prometheus buckets are cumulative; ours are disjoint. Accumulate.
	var cum int64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.Name, formatFloat(b), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, h.Count); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", h.Name, formatFloat(h.Sum), h.Name, h.Count)
	return err
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
