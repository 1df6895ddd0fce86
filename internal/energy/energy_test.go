package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDownloadEnergyMatchesPaperLine(t *testing.T) {
	p := Params11Mbps()
	for _, s := range []float64{0.01, 0.1, 0.5, 1, 3, 9.5} {
		got := p.DownloadEnergy(s)
		want := PaperDownloadEnergy(s)
		// The paper rounds its slope to 3.519; ours is 2.486 + 1.55·2/3.
		if math.Abs(got-want)/want > 1e-3 {
			t.Errorf("s=%v: E=%v, want %v", s, got, want)
		}
	}
}

func TestInterleavedMatchesPaperClosedFormLarge(t *testing.T) {
	p := Params11Mbps()
	// For s > 0.128 and td >= ti' the model must equal the paper's Eq. 5
	// second branch exactly.
	cases := []struct{ s, f float64 }{
		{1, 2}, {1, 5}, {3, 2.5}, {8, 18}, {2, 1.3},
	}
	for _, c := range cases {
		sc := c.s / c.f
		got := p.InterleavedEnergy(c.s, sc)
		want := PaperInterleavedEnergy(c.s, sc)
		if math.Abs(got-want)/want > 0.001 {
			t.Errorf("s=%v F=%v: E=%v, paper %v", c.s, c.f, got, want)
		}
	}
}

func TestInterleavedNearBranchBoundary(t *testing.T) {
	// The paper's Eq. 5 splits branches at the approximate condition
	// F = 3.14 − 0.265/s (it neglects ti1); the exact Eq. 3 may pick the
	// other branch close to the boundary, where both branches are within
	// a few percent of each other anyway.
	p := Params11Mbps()
	for _, c := range []struct{ s, f float64 }{{3, 3}, {0.2, 1.5}, {1, 2.9}} {
		sc := c.s / c.f
		got := p.InterleavedEnergy(c.s, sc)
		want := PaperInterleavedEnergy(c.s, sc)
		if math.Abs(got-want)/want > 0.08 {
			t.Errorf("s=%v F=%v: E=%v vs paper %v (>8%%)", c.s, c.f, got, want)
		}
	}
}

func TestInterleavedMatchesPaperClosedFormSmall(t *testing.T) {
	p := Params11Mbps()
	for _, c := range []struct{ s, f float64 }{{0.05, 2}, {0.1, 4}, {0.128, 3}} {
		sc := c.s / c.f
		got := p.InterleavedEnergy(c.s, sc)
		want := PaperInterleavedEnergySmall(c.s, sc)
		if math.Abs(got-want)/want > 0.001 {
			t.Errorf("s=%v F=%v: E=%v, paper %v", c.s, c.f, got, want)
		}
	}
}

func TestEquation6Thresholds(t *testing.T) {
	p := Params11Mbps()
	// The model's decision must agree with the paper's published Eq. 6 on
	// a dense grid.
	disagreements := 0
	total := 0
	for _, sB := range []int{1000, 3000, 3900, 5000, 10_000, 50_000, 127_000, 200_000, 1_000_000, 8_000_000} {
		for _, f := range []float64{1.01, 1.1, 1.13, 1.2, 1.3, 1.5, 2, 5, 20} {
			scB := int(float64(sB) / f)
			if scB == 0 {
				continue
			}
			total++
			if p.ShouldCompress(float64(sB)/1e6, float64(scB)/1e6) != PaperShouldCompress(sB, scB) {
				disagreements++
			}
		}
	}
	// Boundary cases may flip either way; bulk agreement must hold.
	if disagreements > total/20 {
		t.Errorf("model disagrees with paper Eq.6 on %d/%d points", disagreements, total)
	}
}

func TestFileThresholdNear3900Bytes(t *testing.T) {
	p := Params11Mbps()
	got := p.ThresholdSizeBytes()
	if math.Abs(got-PaperFileThresholdBytes)/PaperFileThresholdBytes > 0.05 {
		t.Errorf("file threshold %v bytes, paper says ~3900", got)
	}
}

func TestThresholdFactorLargeFile(t *testing.T) {
	p := Params11Mbps()
	// For large files Eq. 6 reduces to F > ~1.13.
	f := p.ThresholdFactor(5.0)
	if math.Abs(f-1.13) > 0.02 {
		t.Errorf("large-file threshold factor %v, want ~1.13", f)
	}
	// Below the file threshold no factor works.
	if !math.IsInf(p.ThresholdFactor(0.003), 1) {
		t.Errorf("3 KB file should never benefit")
	}
}

func TestSleepCrossoverNearPaper(t *testing.T) {
	p := Params11Mbps()
	got := p.SleepCrossoverFactor()
	if math.Abs(got-PaperSleepCrossoverFactor) > 1.0 {
		t.Errorf("sleep crossover factor %v, paper derives ~4.6", got)
	}
}

func TestFillIdleFactor2Mbps(t *testing.T) {
	p := Params2Mbps()
	got := p.FillIdleFactor()
	if math.Abs(got-PaperFillIdleFactor2Mbps)/PaperFillIdleFactor2Mbps > 0.25 {
		t.Errorf("2 Mb/s fill-idle factor %v, paper derives ~27", got)
	}
	// At 11 Mb/s it is far smaller.
	f11 := Params11Mbps().FillIdleFactor()
	if f11 >= got {
		t.Errorf("11 Mb/s fill factor (%v) should be below 2 Mb/s (%v)", f11, got)
	}
}

func TestInterleavingAlwaysBeatsSequential(t *testing.T) {
	p := Params11Mbps()
	f := func(sRaw, fRaw uint16) bool {
		s := 0.01 + float64(sRaw%1000)/100 // 0.01..10 MB
		factor := 1.01 + float64(fRaw%200)/10
		sc := s / factor
		return p.InterleavedEnergy(s, sc) <= p.SequentialEnergy(s, sc)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedEnergyMonotoneInSc(t *testing.T) {
	p := Params11Mbps()
	s := 2.0
	prev := math.Inf(-1)
	for sc := 0.05; sc <= s; sc += 0.05 {
		e := p.InterleavedEnergy(s, sc)
		if e < prev {
			t.Fatalf("E_int not monotone at sc=%v", sc)
		}
		prev = e
	}
}

func TestIdleSplitSumsToIdleTime(t *testing.T) {
	p := Params11Mbps()
	f := func(sRaw, fRaw uint16) bool {
		s := 0.001 + float64(sRaw%1000)/100
		factor := 1.0 + float64(fRaw%100)/10
		sc := s / factor
		tp, t1 := p.IdleSplit(s, sc)
		return tp >= -1e-12 && t1 >= -1e-12 && almost(tp+t1, p.IdleTime(sc), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIdleTimeIs40PercentOfDownload(t *testing.T) {
	p := Params11Mbps()
	s := 3.0
	if !almost(p.IdleTime(s), 0.4*s/0.6, 1e-12) {
		t.Errorf("ti = %v", p.IdleTime(s))
	}
}

func TestLowFactorLosesEnergy(t *testing.T) {
	p := Params11Mbps()
	// The paper: net loss of 2-14% for low factors even with interleaving.
	s := 1.0
	sc := s / 1.05
	plain := p.DownloadEnergy(s)
	comp := p.InterleavedEnergy(s, sc)
	if comp <= plain {
		t.Errorf("F=1.05 should lose energy: %v vs %v", comp, plain)
	}
	loss := (comp - plain) / plain
	if loss < 0.01 || loss > 0.20 {
		t.Errorf("loss %.1f%% outside the paper's 2-14%% ballpark", loss*100)
	}
}

func TestHighFactorLargeFileSavesSubstantially(t *testing.T) {
	p := Params11Mbps()
	s := 3.0
	sc := s / 18.23 // nes96.xml's gzip factor
	saving := 1 - p.InterleavedEnergy(s, sc)/p.DownloadEnergy(s)
	if saving < 0.75 {
		t.Errorf("high-factor saving %.2f, want > 0.75", saving)
	}
}

func TestInterleavedTimeNeverBelowTransfer(t *testing.T) {
	p := Params11Mbps()
	f := func(sRaw, fRaw uint16) bool {
		s := 0.01 + float64(sRaw%500)/100
		factor := 1.01 + float64(fRaw%150)/10
		sc := s / factor
		ti := p.InterleavedTime(s, sc)
		return ti >= p.DownloadTime(sc)-1e-12 && ti <= p.DownloadTime(sc)+p.DecompressTime(s, sc)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShouldCompressRejectsDegenerate(t *testing.T) {
	p := Params11Mbps()
	if p.ShouldCompress(0, 0) || p.ShouldCompress(1, 0) || p.ShouldCompress(0, 1) {
		t.Error("degenerate sizes must not compress")
	}
}

func TestParamsString(t *testing.T) {
	if s := Params11Mbps().String(); s == "" {
		t.Error("empty String()")
	}
}

func TestPaperDecompressTimeFit(t *testing.T) {
	// td(1 MB raw, 0.25 MB compressed) from the published fit.
	got := PaperDecompressTime(1.0, 0.25)
	want := 0.161 + 0.161*0.25 + 0.004
	if !almost(got, want, 1e-12) {
		t.Errorf("td = %v, want %v", got, want)
	}
	// The model with default parameters matches the published fit.
	p := Params11Mbps()
	if !almost(p.DecompressTime(1.0, 0.25), got, 1e-12) {
		t.Error("model td diverges from the published fit")
	}
}

func TestPaper2MbpsScCoefficient(t *testing.T) {
	// The 2 Mb/s closed form's sc coefficient (12.4291 J/MB) should match
	// the model's per-MB compressed download cost within a few percent;
	// the s coefficient is a known typo (see EXPERIMENTS.md).
	p := Params2Mbps()
	perMB := p.M + p.IdleFrac/p.RateMBps*p.Pi
	if math.Abs(perMB-12.4291)/12.4291 > 0.05 {
		t.Errorf("2 Mb/s per-MB cost %.3f, paper's sc coefficient 12.4291", perMB)
	}
	// And the literal helper stays as published.
	got := PaperInterleavedEnergy2Mbps(1.0, 0.25)
	want := 2.0125 + 12.4291*0.25 + 0.0275
	if !almost(got, want, 1e-9) {
		t.Errorf("published form = %v, want %v", got, want)
	}
}

// PaperDownloadEnergy is the paper's fitted line E = 3.519·s + 0.012 (J, s
// in MB) for plain downloading at 11 Mb/s (Figure 8(b), 7.2% average
// error).
func PaperDownloadEnergy(s float64) float64 {
	return 3.519*s + 0.012
}

// PaperDecompressTime is the paper's fitted gzip decompression time
// td = 0.161·s + 0.161·sc + 0.004 (Figure 8(a); 3% average error, 13%
// max, R² = 96.7%).
func PaperDecompressTime(s, sc float64) float64 {
	return 0.161*s + 0.161*sc + 0.004
}

// PaperInterleavedEnergy is the paper's Equation 5 closed form. For
// s > 0.128 MB it has two branches split at F = 3.14 − 0.265/s:
//
//   - high factors (decompression outruns the shrunken idle windows,
//     ti' ≤ td): E = 0.4589·s + 2.945·sc + 0.132/F + 0.0234 — this is
//     m·sc + cs + td·pd + ti1·pi with the 0.132/F term being ti1·pi;
//   - low factors (idle windows absorb all decompression, ti' > td):
//     E = 0.2093·s + 3.729·sc + 0.0172 — the idle-reclaim form
//     m·sc + cs + td·(pd−pi) + ti·pi.
//
// Both derive exactly from Eqs. 1-4 with the Table 1 powers; see DESIGN.md.
func PaperInterleavedEnergy(s, sc float64) float64 {
	if s < 0.128 {
		return PaperInterleavedEnergySmall(s, sc)
	}
	f := s / sc
	if f > 3.14-0.265/s {
		return 0.4589*s + 2.945*sc + 0.132/f + 0.0234
	}
	return 0.2093*s + 3.729*sc + 0.0172
}

// PaperInterleavedEnergySmall is Equation 5's s <= 0.128 MB branch:
// E = 0.4589·s + 3.9784·sc + 0.0234.
func PaperInterleavedEnergySmall(s, sc float64) float64 {
	return 0.4589*s + 3.9784*sc + 0.0234
}

// PaperInterleavedEnergy2Mbps is the Section 4.2 estimate at the 2 Mb/s
// nominal rate for compression factors below the fill-idle threshold of
// 27: E = 2.0125·s + 12.4291·sc + 0.0275 (s > 0.128 MB).
func PaperInterleavedEnergy2Mbps(s, sc float64) float64 {
	return 2.0125*s + 12.4291*sc + 0.0275
}

// PaperSleepCrossoverFactor is the paper's derived factor above which
// sleep-mode decompression beats interleaving at 11 Mb/s.
const PaperSleepCrossoverFactor = 4.6

// PaperFillIdleFactor2Mbps is the paper's derived factor needed to fill
// all idle time with decompression at 2 Mb/s.
const PaperFillIdleFactor2Mbps = 27.0

// SequentialEnergy returns Eq. 2: download the compressed file, then
// decompress, without interleaving and without power saving.
func (p Params) SequentialEnergy(s, sc float64) float64 {
	tiPrime, ti1 := p.IdleSplit(s, sc)
	return p.M*sc + p.Cs + (tiPrime+ti1)*p.Pi + p.DecompressTime(s, sc)*p.Pd
}
