package experiment

import (
	"math"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/energy"
)

// testConfig keeps runs fast: large files scaled to ~1/40, few files per
// group.
func testConfig() Config {
	return Config{Scale: 1.0 / 40, LargeSubset: 6, SmallSubset: 4}
}

func TestTable1MatchesPaperConstants(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.MeasuredMA-r.TableMA) > 0.5 {
			t.Errorf("%v/%v ps=%v: measured %.1f vs table %.1f",
				r.CPU, r.Radio, r.PowerSave, r.MeasuredMA, r.TableMA)
		}
	}
	if out := RenderTable1(rows); !strings.Contains(out, "Table 1") {
		t.Error("render missing title")
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	rows, err := testConfig().Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// bzip2 should generally lead, compress generally trail (allow
		// slack for the incompressible files where all are ~1).
		if r.Spec.PaperGzip > 2 {
			if !(r.Bzip2 > r.Compress) {
				t.Errorf("%s: bzip2 %.2f should beat compress %.2f", r.Spec.Name, r.Bzip2, r.Compress)
			}
			if !(r.Gzip > r.Compress) {
				t.Errorf("%s: gzip %.2f should beat compress %.2f", r.Spec.Name, r.Gzip, r.Compress)
			}
		}
		if r.Spec.PaperGzip <= 1.1 && r.Gzip > 1.3 {
			t.Errorf("%s: incompressible file got factor %.2f", r.Spec.Name, r.Gzip)
		}
	}
	if out := RenderTable2(rows); !strings.Contains(out, "nes96.xml") {
		t.Error("render missing file names")
	}
	if out := RenderTable3(); !strings.Contains(out, "a xml webpage") {
		t.Error("table 3 render missing descriptions")
	}
}

func TestSchemeComparisonShape(t *testing.T) {
	cfg := Config{Scale: 1.0 / 40, LargeSubset: 4, SmallSubset: 2}
	comps, err := cfg.SchemeComparison()
	if err != nil {
		t.Fatal(err)
	}
	gzWins := 0
	for _, fc := range comps {
		if !fc.Spec.Large || fc.Spec.PaperGzip < 2 {
			continue
		}
		gz := fc.Bars[0].RelEnergy
		lz := fc.Bars[1].RelEnergy
		bz := fc.Bars[2].RelEnergy
		if gz < 1 && gz <= lz && gz <= bz {
			gzWins++
		}
		// All schemes must save energy on the high-factor files.
		if fc.Spec.PaperGzip > 5 && (gz > 0.7 || lz > 0.8 || bz > 0.8) {
			t.Errorf("%s: high-factor file not saving (gz %.2f lz %.2f bz %.2f)",
				fc.Spec.Name, gz, lz, bz)
		}
	}
	if gzWins < 2 {
		t.Errorf("gzip won only %d large compressible files", gzWins)
	}
	if out := RenderBars("Figure 2", "energy", comps); !strings.Contains(out, "gzip") {
		t.Error("render missing bars")
	}
}

func TestInterleavingComparisonShape(t *testing.T) {
	cfg := Config{Scale: 1.0 / 40, LargeSubset: 3, SmallSubset: 1}
	comps, err := cfg.InterleavingComparison()
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range comps {
		if !fc.Spec.Large {
			continue
		}
		zlibSeq := fc.Bars[1]
		zlibIntl := fc.Bars[2]
		if !(zlibIntl.RelEnergy <= zlibSeq.RelEnergy+1e-9) {
			t.Errorf("%s: interleaving raised energy %.3f -> %.3f",
				fc.Spec.Name, zlibSeq.RelEnergy, zlibIntl.RelEnergy)
		}
		if !(zlibIntl.RelTime <= zlibSeq.RelTime+1e-9) {
			t.Errorf("%s: interleaving raised time %.3f -> %.3f",
				fc.Spec.Name, zlibSeq.RelTime, zlibIntl.RelTime)
		}
	}
}

func TestSelectiveComparisonNeverLoses(t *testing.T) {
	cfg := Config{Scale: 1.0 / 40, LargeSubset: 23, SmallSubset: 1}
	comps, err := cfg.SelectiveComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) < 3 {
		t.Fatalf("only %d affected files", len(comps))
	}
	for _, fc := range comps {
		adaptive := fc.Bars[2]
		if adaptive.RelEnergy > 1.02 {
			t.Errorf("%s: adaptive scheme costs %.3fx plain energy", fc.Spec.Name, adaptive.RelEnergy)
		}
		blind := fc.Bars[1]
		if adaptive.RelEnergy > blind.RelEnergy*1.03 {
			t.Errorf("%s: adaptive (%.3f) worse than blind (%.3f)",
				fc.Spec.Name, adaptive.RelEnergy, blind.RelEnergy)
		}
	}
}

func TestOnDemandComparisonShape(t *testing.T) {
	cfg := Config{Scale: 1.0 / 40, LargeSubset: 4}
	comps, err := cfg.OnDemandComparison()
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range comps {
		gz, lz, zl := fc.Bars[0], fc.Bars[1], fc.Bars[2]
		// The revised zlib masks compression: no visible compress bar.
		if zl.CompressSec > 0.3*zl.DownloadSec+0.05 {
			t.Errorf("%s: zlib visible compression %.3fs", fc.Spec.Name, zl.CompressSec)
		}
		// gzip should beat compress in nearly all compressible cases.
		if fc.Spec.PaperGzip > 2.2 && gz.RelEnergy > lz.RelEnergy*1.15 {
			t.Errorf("%s: on-demand gzip %.3f much worse than compress %.3f",
				fc.Spec.Name, gz.RelEnergy, lz.RelEnergy)
		}
	}
}

func TestFig3Breakdown(t *testing.T) {
	b, err := testConfig().Fig3IdleBreakdown(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.IdleTimeFrac-0.40) > 0.03 {
		t.Errorf("idle time fraction %.3f, want ~0.40", b.IdleTimeFrac)
	}
	if math.Abs(b.IdleEnergyFrac-0.30) > 0.04 {
		t.Errorf("idle energy fraction %.3f, want ~0.30", b.IdleEnergyFrac)
	}
	if out := RenderFig3(b); !strings.Contains(out, "Figure 3") {
		t.Error("render missing title")
	}
}

func TestFig4Scenarios(t *testing.T) {
	scenarios, err := testConfig().Fig4Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 2 {
		t.Fatalf("got %d scenarios", len(scenarios))
	}
	a, b := scenarios[0], scenarios[1]
	if !(a.Factor < b.Factor) {
		t.Errorf("scenario (a) should be the low-factor one: %.2f vs %.2f", a.Factor, b.Factor)
	}
	// Case (a): the idle windows absorb all decompression, no overhang.
	if !(a.DecompressSec < a.IdleWindowsSec) {
		t.Errorf("case (a) should fit in idle windows: %.3f vs %.3f", a.DecompressSec, a.IdleWindowsSec)
	}
	// Case (b): decompression exceeds the usable idle windows.
	if !(b.DecompressSec > b.IdleWindowsSec) {
		t.Errorf("case (b) should overrun idle windows: %.3f vs %.3f", b.DecompressSec, b.IdleWindowsSec)
	}
	if out := RenderFig4(scenarios); !strings.Contains(out, "Figure 4") {
		t.Error("render missing title")
	}
}

func TestFig7ErrorsSmall(t *testing.T) {
	series, err := testConfig().Fig7InterleaveErrors()
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 2.5% (large) and 9.1% (small); our simulator obeys
	// the same primitives, so errors must stay moderate.
	if series.AvgAbsLarge > 0.08 {
		t.Errorf("large-file model error %.1f%%", series.AvgAbsLarge*100)
	}
	if series.AvgAbsSmall > 0.20 {
		t.Errorf("small-file model error %.1f%%", series.AvgAbsSmall*100)
	}
	if out := RenderErrorSeries("Figure 7", series); !strings.Contains(out, "avg |error|") {
		t.Error("render missing summary")
	}
}

func TestFig8FitsRecoverCoefficients(t *testing.T) {
	fits, err := testConfig().Fig8Fits()
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 2 {
		t.Fatalf("got %d fits", len(fits))
	}
	td := fits[0]
	if math.Abs(td.Coefs[0]-0.161) > 0.02 {
		t.Errorf("td slope on s: %.4f, want ~0.161", td.Coefs[0])
	}
	if td.Stats.R2 < 0.95 {
		t.Errorf("td fit R^2 %.3f, paper reports 96.7%%", td.Stats.R2)
	}
	e := fits[1]
	if math.Abs(e.Coefs[0]-3.519)/3.519 > 0.03 {
		t.Errorf("download energy slope %.4f, want ~3.519", e.Coefs[0])
	}
	if math.Abs(e.Coefs[1]-0.012) > 0.02 {
		t.Errorf("download energy intercept %.4f, want ~0.012", e.Coefs[1])
	}
	if out := RenderFig8(fits); !strings.Contains(out, "Figure 8") {
		t.Error("render missing title")
	}
}

func TestFig9BothRates(t *testing.T) {
	// Large files must stay above the 0.128 MB buffer for the large-file
	// branch of the model to apply, so scale less aggressively here.
	cfg := Config{Scale: 1.0 / 8, LargeSubset: 3, SmallSubset: 2}
	series, err := cfg.Fig9BitrateErrors()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if s.AvgAbsLarge > 0.12 {
			t.Errorf("[%s] large error %.1f%%", s.Label, s.AvgAbsLarge*100)
		}
	}
}

func TestThresholdsNearPaper(t *testing.T) {
	th := Thresholds()
	if math.Abs(th.FileThresholdBytes-3900) > 200 {
		t.Errorf("file threshold %.0f", th.FileThresholdBytes)
	}
	if math.Abs(th.LargeFactorThreshold-1.13) > 0.02 {
		t.Errorf("factor threshold %.3f", th.LargeFactorThreshold)
	}
	if out := RenderThresholds(th); !strings.Contains(out, "3900") {
		t.Error("render missing paper constants")
	}
}

func TestModelForSchemes(t *testing.T) {
	for _, s := range codec.Schemes() {
		p11 := modelFor(s, energy.Rate11Mbps())
		if p11.TdA <= 0 {
			t.Errorf("%v: bad 11 Mb/s model", s)
		}
		p2 := modelFor(s, energy.Rate2Mbps())
		if p2.RateMBps != 0.18 {
			t.Errorf("%v: 2 Mb/s model rate %.2f", s, p2.RateMBps)
		}
	}
}
