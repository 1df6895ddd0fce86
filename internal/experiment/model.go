package experiment

import (
	"fmt"
	"strings"

	"repro/internal/codec"
	"repro/internal/energy"
	"repro/internal/fit"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// IdleBreakdown reproduces Figure 3's observation: the fraction of the
// download spent CPU-idle and the fraction of download energy burnt in
// those idle intervals (~40% and ~30% at 11 Mb/s).
type IdleBreakdown struct {
	SizeBytes       int
	IdleTimeFrac    float64
	IdleEnergyFrac  float64
	TotalEnergyJ    float64
	DownloadSeconds float64
}

// Fig3IdleBreakdown measures a plain download's idle time and energy
// shares.
func (c Config) Fig3IdleBreakdown(sizeBytes int) (IdleBreakdown, error) {
	data := workload.Generate(workload.ClassSource, sizeBytes, 3)
	res, err := c.runSpec(pipeline.Spec{Data: data, Mode: pipeline.ModePlain})
	if err != nil {
		return IdleBreakdown{}, err
	}
	p := energy.Params11Mbps()
	s := float64(sizeBytes) / 1e6
	idleT := p.IdleTime(s)
	idleE := idleT * p.Pi
	return IdleBreakdown{
		SizeBytes:       sizeBytes,
		IdleTimeFrac:    idleT / res.TotalSeconds.Seconds(),
		IdleEnergyFrac:  idleE / res.ExactEnergyJ,
		TotalEnergyJ:    res.ExactEnergyJ,
		DownloadSeconds: res.TotalSeconds.Seconds(),
	}, nil
}

// RenderFig3 formats the idle breakdown.
func RenderFig3(b IdleBreakdown) string {
	return fmt.Sprintf(`Figure 3: energy breakdown of download-then-decompress (plain download phase)
size: %d bytes  download: %.3f s  energy: %.3f J
CPU-idle time share of download: %.1f%% (paper: ~40%%)
idle-interval share of download energy: %.1f%% (paper: ~30%%)
`, b.SizeBytes, b.DownloadSeconds, b.TotalEnergyJ, b.IdleTimeFrac*100, b.IdleEnergyFrac*100)
}

// InterleaveScenario is one of Figure 4's two cases.
type InterleaveScenario struct {
	Label          string
	Factor         float64
	IdleWindowsSec float64 // usable idle time during the transfer
	DecompressSec  float64
	OverhangSec    float64 // decompression continuing past the download
}

// Fig4Scenarios runs a high-factor file (decompression fits in the idle
// windows, case (a)) and a low-factor file (decompression slower than
// downloading, case (b)).
func (c Config) Fig4Scenarios() ([]InterleaveScenario, error) {
	cases := []struct {
		label string
		class workload.Class
		size  int
	}{
		// Idle time scales with the compressed size, so the low-factor
		// file is the one whose idle windows absorb all decompression
		// (case a); the high-factor file overruns them (case b) — the
		// paper's F = 3.14 branch constant marks the crossover.
		{"(a) idle time > decompression", workload.ClassBinary, 1_500_000},
		{"(b) idle time < decompression", workload.ClassXML, 1_500_000},
	}
	var out []InterleaveScenario
	for _, cs := range cases {
		data := workload.Generate(cs.class, cs.size, 17)
		res, err := c.runSpec(pipeline.Spec{Data: data, Scheme: codec.Zlib, Mode: pipeline.ModeInterleaved})
		if err != nil {
			return nil, err
		}
		p := energy.Params11Mbps()
		tiPrime, _ := p.IdleSplit(float64(res.RawBytes)/1e6, float64(res.WireBytes)/1e6)
		overhang := res.TotalSeconds - res.TransferSeconds
		out = append(out, InterleaveScenario{
			Label:          cs.label,
			Factor:         res.Factor,
			IdleWindowsSec: tiPrime,
			DecompressSec:  res.DecompressSeconds.Seconds(),
			OverhangSec:    overhang.Seconds(),
		})
	}
	return out, nil
}

// RenderFig4 formats the two interleaving scenarios.
func RenderFig4(scenarios []InterleaveScenario) string {
	var b strings.Builder
	b.WriteString("Figure 4: interleaving scenarios (P(i) decompressed while P(i+1) downloads)\n")
	for _, s := range scenarios {
		fmt.Fprintf(&b, "%s: factor %.2f, usable idle %.3fs, decompression %.3fs, overhang past download %.3fs\n",
			s.Label, s.Factor, s.IdleWindowsSec, s.DecompressSec, s.OverhangSec)
	}
	return b.String()
}

// ErrorPoint is one file's model-vs-measurement error.
type ErrorPoint struct {
	Spec      workload.FileSpec
	Factor    float64
	Measured  float64
	Predicted float64
	RelError  float64 // (calculated - measured) / measured
}

// ErrorSeries is a Figure 7/9-style error-rate series.
type ErrorSeries struct {
	Label       string
	Large       []ErrorPoint
	Small       []ErrorPoint
	AvgAbsLarge float64
	AvgAbsSmall float64
}

// interleaveErrors computes the Eq. 3 prediction error against the metered
// simulation for zlib-with-interleaving at the given rate.
func (c Config) interleaveErrors(label string, rate energy.RateConfig) (ErrorSeries, error) {
	model := modelFor(codec.Zlib, rate)
	series := ErrorSeries{Label: label}
	large, small := c.corpus()
	run := func(specs []workload.FileSpec) ([]ErrorPoint, error) {
		var pts []ErrorPoint
		for _, spec := range specs {
			data := spec.Generate()
			res, err := c.runSpec(pipeline.Spec{
				Data: data, Scheme: codec.Zlib, Mode: pipeline.ModeInterleaved, Rate: rate,
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Name, err)
			}
			s := float64(res.RawBytes) / 1e6
			sc := float64(res.WireBytes) / 1e6
			pred := model.InterleavedEnergy(s, sc)
			meas := res.MeteredEnergyJ
			pts = append(pts, ErrorPoint{
				Spec: spec, Factor: res.Factor,
				Measured: meas, Predicted: pred,
				RelError: (pred - meas) / meas,
			})
		}
		return pts, nil
	}
	var err error
	if series.Large, err = run(large); err != nil {
		return series, err
	}
	if series.Small, err = run(small); err != nil {
		return series, err
	}
	series.AvgAbsLarge = avgAbs(series.Large)
	series.AvgAbsSmall = avgAbs(series.Small)
	return series, nil
}

func avgAbs(pts []ErrorPoint) float64 {
	if len(pts) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pts {
		if p.RelError < 0 {
			sum -= p.RelError
		} else {
			sum += p.RelError
		}
	}
	return sum / float64(len(pts))
}

// Fig7InterleaveErrors reproduces Figure 7: energy-estimation error for
// interleaving at 11 Mb/s (paper: ~2.5% large, ~9.1% small).
func (c Config) Fig7InterleaveErrors() (ErrorSeries, error) {
	return c.interleaveErrors("11Mb/s interleaving model error", energy.Rate11Mbps())
}

// Fig9BitrateErrors reproduces Figure 9: the same error series at 11 and
// 2 Mb/s.
func (c Config) Fig9BitrateErrors() ([]ErrorSeries, error) {
	s11, err := c.interleaveErrors("11Mb/s", energy.Rate11Mbps())
	if err != nil {
		return nil, err
	}
	s2, err := c.interleaveErrors("2Mb/s", energy.Rate2Mbps())
	if err != nil {
		return nil, err
	}
	return []ErrorSeries{s11, s2}, nil
}

// RenderErrorSeries formats a Figure 7/9 error series.
func RenderErrorSeries(title string, series ...ErrorSeries) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	for _, s := range series {
		fmt.Fprintf(&b, "[%s] avg |error|: large %.1f%%, small %.1f%%\n",
			s.Label, s.AvgAbsLarge*100, s.AvgAbsSmall*100)
		b.WriteString(header(
			fmt.Sprintf("%-24s", "file"),
			fmt.Sprintf("%8s", "factor"),
			fmt.Sprintf("%12s", "measured J"),
			fmt.Sprintf("%12s", "model J"),
			fmt.Sprintf("%10s", "error"),
		))
		for _, p := range append(append([]ErrorPoint{}, s.Large...), s.Small...) {
			fmt.Fprintf(&b, "%-24s%8.2f%12.4f%12.4f%10s\n",
				p.Spec.Name, p.Factor, p.Measured, p.Predicted, pct(p.RelError))
		}
	}
	return b.String()
}

// FitResult holds a Figure 8 regression outcome.
type FitResult struct {
	Label  string
	Coefs  []float64
	Paper  []float64
	Points int
	Stats  fit.Stats
}

// Fig8Fits reproduces Figure 8: (a) the decompression-time multiple
// regression td = a·s + b·sc + c and (b) the download-energy line
// E = m'·s + c'. Both are fitted to simulated measurements and compared
// with the paper's published coefficients.
func (c Config) Fig8Fits() ([]FitResult, error) {
	// (a) decompression time across the corpus (sequential runs, gzip).
	var x [][]float64
	var y []float64
	for _, spec := range c.files() {
		data := spec.Generate()
		res, err := c.runSpec(pipeline.Spec{Data: data, Scheme: codec.Gzip, Mode: pipeline.ModeSequential})
		if err != nil {
			return nil, err
		}
		x = append(x, []float64{float64(res.RawBytes) / 1e6, float64(res.WireBytes) / 1e6})
		y = append(y, res.DecompressSeconds.Seconds())
	}
	coefs, err := fit.Multiple(x, y)
	if err != nil {
		return nil, err
	}
	pred := make([]float64, len(y))
	for i := range x {
		pred[i] = coefs[0]*x[i][0] + coefs[1]*x[i][1] + coefs[2]
	}
	stA, err := fit.Evaluate(pred, y)
	if err != nil {
		return nil, err
	}
	fitA := FitResult{
		Label:  "(a) td = a*s + b*sc + c",
		Coefs:  coefs,
		Paper:  []float64{0.161, 0.161, 0.004},
		Points: len(y),
		Stats:  stA,
	}

	// (b) plain download energy over a size sweep.
	var xs, ys []float64
	for _, n := range []int{50_000, 150_000, 400_000, 900_000, 1_600_000, 2_500_000, 4_000_000} {
		size := int(float64(n) * c.scale() * 4)
		if size < 20_000 {
			size = 20_000
		}
		data := workload.Generate(workload.ClassSource, size, uint64(n))
		res, err := c.runSpec(pipeline.Spec{Data: data, Mode: pipeline.ModePlain})
		if err != nil {
			return nil, err
		}
		xs = append(xs, float64(size)/1e6)
		ys = append(ys, res.MeteredEnergyJ)
	}
	slope, icept, err := fit.Linear(xs, ys)
	if err != nil {
		return nil, err
	}
	predB := make([]float64, len(ys))
	for i := range xs {
		predB[i] = slope*xs[i] + icept
	}
	stB, err := fit.Evaluate(predB, ys)
	if err != nil {
		return nil, err
	}
	fitB := FitResult{
		Label:  "(b) E = m*s + cs",
		Coefs:  []float64{slope, icept},
		Paper:  []float64{3.519, 0.012},
		Points: len(ys),
		Stats:  stB,
	}
	return []FitResult{fitA, fitB}, nil
}

// RenderFig8 formats the fit results.
func RenderFig8(fits []FitResult) string {
	var b strings.Builder
	b.WriteString("Figure 8: model fitting (measured coefficients vs paper)\n")
	for _, f := range fits {
		fmt.Fprintf(&b, "%s  [%d points]\n  fitted:", f.Label, f.Points)
		for _, v := range f.Coefs {
			fmt.Fprintf(&b, " %.4f", v)
		}
		b.WriteString("\n  paper: ")
		for _, v := range f.Paper {
			fmt.Fprintf(&b, " %.4f", v)
		}
		fmt.Fprintf(&b, "\n  R^2 = %.4f, avg |err| = %.2f%%, max |err| = %.2f%%\n",
			f.Stats.R2, f.Stats.AvgRelErr*100, f.Stats.MaxRelErr*100)
	}
	return b.String()
}

// ThresholdSummary reports the derived decision thresholds next to the
// paper's (Sections 4.2-4.3).
type ThresholdSummary struct {
	FileThresholdBytes   float64
	LargeFactorThreshold float64
	SleepCrossover       float64
	FillIdleFactor2Mbps  float64
}

// Thresholds derives the paper's headline decision constants from the
// model.
func Thresholds() ThresholdSummary {
	p11 := energy.Params11Mbps()
	p2 := energy.Params2Mbps()
	return ThresholdSummary{
		FileThresholdBytes:   p11.ThresholdSizeBytes(),
		LargeFactorThreshold: p11.ThresholdFactor(4.0),
		SleepCrossover:       p11.SleepCrossoverFactor(),
		FillIdleFactor2Mbps:  p2.FillIdleFactor(),
	}
}

// RenderThresholds formats the derived constants.
func RenderThresholds(t ThresholdSummary) string {
	return fmt.Sprintf(`Derived decision thresholds (model | paper)
file-size threshold: %.0f bytes | 3900 bytes
large-file factor threshold: %.3f | 1.13
sleep-vs-interleave crossover factor: %.2f | 4.6
fill-idle factor at 2 Mb/s: %.1f | 27
`, t.FileThresholdBytes, t.LargeFactorThreshold, t.SleepCrossover, t.FillIdleFactor2Mbps)
}
