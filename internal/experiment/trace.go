package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TraceResult is a captured device-current timeline for one experiment.
type TraceResult struct {
	Label    string
	Segments []TraceSegment
	TotalSec float64
	EnergyJ  float64
}

// TraceSegment is one constant-current interval.
type TraceSegment struct {
	StartSec  float64
	EndSec    float64
	CurrentMA float64
}

// Trace captures the current timeline of a plain download and an
// interleaved compressed download of the same content — the raw data
// behind Figures 3 and 4.
func (c Config) Trace(sizeBytes int) ([]TraceResult, error) {
	data := workload.Generate(workload.ClassSource, sizeBytes, 29)
	out := make([]TraceResult, 0, 2)
	for _, cs := range []struct {
		label string
		spec  pipeline.Spec
	}{
		{"plain download", pipeline.Spec{Data: data, Mode: pipeline.ModePlain, CaptureTrace: true}},
		{"gzip interleaved", pipeline.Spec{Data: data, Scheme: codec.Gzip, Mode: pipeline.ModeInterleaved, CaptureTrace: true}},
	} {
		res, err := pipeline.Run(cs.spec)
		if err != nil {
			return nil, err
		}
		tr := TraceResult{Label: cs.label, TotalSec: res.TotalSeconds.Seconds(), EnergyJ: res.ExactEnergyJ}
		for i, seg := range res.Trace {
			end := res.TotalSeconds
			if i+1 < len(res.Trace) {
				end = res.Trace[i+1].Start
			}
			if end <= seg.Start {
				continue
			}
			tr.Segments = append(tr.Segments, TraceSegment{
				StartSec:  seg.Start.Seconds(),
				EndSec:    end.Seconds(),
				CurrentMA: seg.CurrentMA,
			})
		}
		out = append(out, tr)
	}
	return out, nil
}

// RenderTraceCSV emits the timeline as CSV (start_s,end_s,current_mA per
// row, one block per trace), suitable for external plotting.
func RenderTraceCSV(traces []TraceResult) string {
	var b strings.Builder
	for _, tr := range traces {
		fmt.Fprintf(&b, "# %s: %.4f s, %.4f J, %d segments\n", tr.Label, tr.TotalSec, tr.EnergyJ, len(tr.Segments))
		b.WriteString("start_s,end_s,current_mA\n")
		for _, seg := range tr.Segments {
			fmt.Fprintf(&b, "%.6f,%.6f,%.1f\n", seg.StartSec, seg.EndSec, seg.CurrentMA)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderTraceSummary prints a compact histogram of time per current level.
func RenderTraceSummary(traces []TraceResult) string {
	var b strings.Builder
	b.WriteString("Device current timelines (Figure 3/4 raw data)\n")
	for _, tr := range traces {
		fmt.Fprintf(&b, "[%s] total %.3f s, %.3f J\n", tr.Label, tr.TotalSec, tr.EnergyJ)
		perLevel := map[float64]time.Duration{}
		for _, seg := range tr.Segments {
			perLevel[seg.CurrentMA] += time.Duration((seg.EndSec - seg.StartSec) * float64(time.Second))
		}
		for _, level := range []float64{90, 110, 310, 340, 430, 462.5, 497.2, 570, 620} {
			if d, ok := perLevel[level]; ok {
				fmt.Fprintf(&b, "  %6.1f mA: %8.3f s (%4.1f%%)\n", level, d.Seconds(), 100*d.Seconds()/tr.TotalSec)
			}
		}
	}
	return b.String()
}
