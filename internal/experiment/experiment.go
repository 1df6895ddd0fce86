// Package experiment regenerates every table and figure of the paper's
// evaluation: it runs the real codecs over the synthetic Table 2 corpus on
// the simulated iPAQ/WaveLAN stack and renders the same rows and series the
// paper reports, alongside the paper's published numbers where available.
package experiment

import (
	"fmt"
	"strings"

	"repro/internal/codec"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/pipeline"
	"repro/internal/wlan"
	"repro/internal/workload"
)

// Config controls corpus scaling and measurement detail. The zero value is
// usable: full Table 2 sizes, 300 samples/s metering.
type Config struct {
	// Scale multiplies large-file sizes (small files keep their absolute
	// sizes; the thresholds are absolute). 0 means 1.0 (paper sizes).
	Scale float64
	// MeterRate is the multimeter sampling rate (0 = 300/s).
	MeterRate float64
	// LargeSubset / SmallSubset limit each file group to the first N
	// entries (0 = all), for fast test runs.
	LargeSubset, SmallSubset int
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1.0
	}
	return c.Scale
}

// corpus returns the (scaled, subsetted) corpus: large files first, small
// after, preserving the figures' ordering.
func (c Config) corpus() (large, small []workload.FileSpec) {
	for _, s := range workload.ScaledCorpus(c.scale()) {
		if s.Large {
			large = append(large, s)
		} else {
			small = append(small, s)
		}
	}
	if c.LargeSubset > 0 && c.LargeSubset < len(large) {
		large = large[:c.LargeSubset]
	}
	if c.SmallSubset > 0 && c.SmallSubset < len(small) {
		small = small[:c.SmallSubset]
	}
	return large, small
}

// modelFor returns the analytic energy model for a scheme at a rate,
// substituting the scheme's decompression cost coefficients.
func modelFor(scheme codec.Scheme, rate wlan.RateConfig) energy.Params {
	cost := device.DecompressCost(scheme)
	return energy.ParamsForMbps(rate.NominalMbps).WithDecompressCost(cost.PerOutMB, cost.PerInMB, cost.PerStream)
}

// runSpec executes one pipeline experiment.
func (c Config) runSpec(spec pipeline.Spec) (pipeline.Result, error) {
	if spec.MeterRate == 0 {
		spec.MeterRate = c.MeterRate
	}
	return pipeline.Run(spec)
}

// plainFor returns the uncompressed-download baseline for data.
func (c Config) plainFor(data []byte, rate wlan.RateConfig) (pipeline.Result, error) {
	return c.runSpec(pipeline.Spec{Data: data, Mode: pipeline.ModePlain, Rate: rate})
}

// header renders a fixed-width table header with a separator line.
func header(cols ...string) string {
	var b strings.Builder
	for _, col := range cols {
		b.WriteString(col)
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", len([]rune(b.String()))-1))
	b.WriteByte('\n')
	return b.String()
}

// pct formats a fraction as a signed percentage.
func pct(f float64) string { return fmt.Sprintf("%+.1f%%", f*100) }
