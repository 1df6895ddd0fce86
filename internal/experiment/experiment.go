// Package experiment regenerates every table and figure of the paper's
// evaluation: it runs the real codecs over the synthetic Table 2 corpus on
// the simulated iPAQ/WaveLAN stack and renders the same rows and series the
// paper reports, alongside the paper's published numbers where available.
package experiment

import (
	"fmt"
	"strings"

	"repro/internal/workload"
)

// Config controls corpus scaling and subsetting. The zero value is
// usable: full Table 2 sizes.
type Config struct {
	// Scale multiplies large-file sizes (small files keep their absolute
	// sizes; the thresholds are absolute). 0 means 1.0 (paper sizes).
	Scale float64
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

// files returns the whole corpus in figure order.
func (c Config) files() []workload.FileSpec {
	large, small := c.corpus()
	return append(large, small...)
}

// Experiment is one entry of the evaluation: a table, figure or derived
// result that Run regenerates as text.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (string, error)
}

// Experiments returns every experiment in report order — the one list
// cmd/energysim's `all`, usage text and unknown-id error are built from.
// (Figure 10 is the algorithm itself: internal/selective.)
func Experiments() []Experiment { return experiments }

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

var experiments = []Experiment{
	{ID: "table1", Title: "Table 1: power parameters",
		Run: rendered(func(Config) ([]PowerRow, error) { return Table1() }, RenderTable1)},
	{ID: "table2", Title: "Table 2: test files and compression factors",
		Run: rendered(Config.Table2, RenderTable2)},
	{ID: "table3", Title: "Table 3: test file type information",
		Run: func(Config) (string, error) { return RenderTable3(), nil }},
	bars("fig1", "Figure 1: time comparison (relative to uncompressed download)", "time", Config.SchemeComparison),
	bars("fig2", "Figure 2: energy comparison (relative to uncompressed download)", "energy", Config.SchemeComparison),
	{ID: "fig3", Title: "Figure 3: energy breakdown of download-then-decompress",
		Run: rendered(func(c Config) (IdleBreakdown, error) { return c.Fig3IdleBreakdown(2_000_000) }, RenderFig3)},
	{ID: "fig4", Title: "Figure 4: interleaving scenarios",
		Run: rendered(Config.Fig4Scenarios, RenderFig4)},
	bars("fig5", "Figure 5: effect of interleaving on time (gzip | zlib | zlib interleaved)", "time", Config.InterleavingComparison),
	bars("fig6", "Figure 6: effect of interleaving on energy (gzip | zlib | zlib interleaved)", "energy", Config.InterleavingComparison),
	errorSeries("fig7", "Figure 7: error rate of energy estimation for interleaving",
		func(c Config) ([]ErrorSeries, error) {
			s, err := c.Fig7InterleaveErrors()
			return []ErrorSeries{s}, err
		}),
	{ID: "fig8", Title: "Figure 8: model fitting", Run: rendered(Config.Fig8Fits, RenderFig8)},
	errorSeries("fig9", "Figure 9: error rate of energy estimation (11 vs 2 Mb/s)", Config.Fig9BitrateErrors),
	bars("fig11", "Figure 11: effect of the block-by-block adaptive scheme (time & energy as 'relative')", "energy", Config.SelectiveComparison),
	bars("fig12", "Figure 12: time comparison, compression on demand (gzip | compress | zlib interleaved)", "time", Config.OnDemandComparison),
	bars("fig13", "Figure 13: energy comparison, compression on demand (gzip | compress | zlib interleaved)", "energy", Config.OnDemandComparison),
	{ID: "thresholds", Title: "Derived decision thresholds",
		Run: func(Config) (string, error) { return RenderThresholds(Thresholds()), nil }},
}

// rendered chains an experiment's computation into its text renderer.
func rendered[T any](compute func(Config) (T, error), render func(T) string) func(Config) (string, error) {
	return func(c Config) (string, error) {
		v, err := compute(c)
		if err != nil {
			return "", err
		}
		return render(v), nil
	}
}

// bars is a comparison figure: title heads the rendered bars and metric
// selects "time" or "energy".
func bars(id, title, metric string, compute func(Config) ([]FileComparison, error)) Experiment {
	return Experiment{ID: id, Title: title, Run: rendered(compute, func(comps []FileComparison) string {
		return RenderBars(title, metric, comps)
	})}
}

// errorSeries is a Figure 7/9-style model-error figure.
func errorSeries(id, title string, compute func(Config) ([]ErrorSeries, error)) Experiment {
	return Experiment{ID: id, Title: title, Run: rendered(compute, func(s []ErrorSeries) string {
		return RenderErrorSeries(title, s...)
	})}
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
