package energy

import (
	"math"
	"testing"
)

// TestInterleavedBreakdownSums: the radio/CPU/idle attribution must sum
// exactly to Eq. 3 for both measured link configurations, across file
// sizes spanning the sub-buffer and large-file regimes and a range of
// compression factors. The trace layer leans on this identity — per-phase
// joules in a span add up to the model's whole-transfer answer.
func TestInterleavedBreakdownSums(t *testing.T) {
	for _, p := range []Params{Params11Mbps(), Params2Mbps()} {
		for _, s := range []float64{0.004, 0.05, 0.128, 0.5, 1, 4} {
			for _, f := range []float64{1.1, 2, 3.5, 10} {
				sc := s / f
				bd := p.InterleavedBreakdown(s, sc)
				want := p.InterleavedEnergy(s, sc)
				if got := bd.Total(); math.Abs(got-want) > 1e-12*math.Max(1, want) {
					t.Errorf("%v s=%g sc=%g: breakdown total %g != InterleavedEnergy %g", p, s, sc, got, want)
				}
				if bd.RadioJ != p.M*sc+p.Cs {
					t.Errorf("s=%g sc=%g: RadioJ = %g, want %g", s, sc, bd.RadioJ, p.M*sc+p.Cs)
				}
				if bd.CPUJ != p.DecompressTime(s, sc)*p.Pd {
					t.Errorf("s=%g sc=%g: CPUJ = %g, want td*Pd", s, sc, bd.CPUJ)
				}
				if bd.RadioJ < 0 || bd.CPUJ < 0 || bd.IdleJ < 0 {
					t.Errorf("s=%g sc=%g: negative component %+v", s, sc, bd)
				}
			}
		}
	}
}

// TestDownloadBreakdownSums: same identity for the uncompressed Eq. 1.
func TestDownloadBreakdownSums(t *testing.T) {
	for _, p := range []Params{Params11Mbps(), Params2Mbps()} {
		for _, s := range []float64{0.001, 0.128, 1, 4} {
			bd := p.DownloadBreakdown(s)
			want := p.DownloadEnergy(s)
			if got := bd.Total(); math.Abs(got-want) > 1e-12*math.Max(1, want) {
				t.Errorf("s=%g: breakdown total %g != DownloadEnergy %g", s, got, want)
			}
			if bd.CPUJ != 0 {
				t.Errorf("s=%g: uncompressed download must have zero CPU energy, got %g", s, bd.CPUJ)
			}
		}
	}
}

// TestBreakdownDegenerate: non-positive sizes attribute nothing.
func TestBreakdownDegenerate(t *testing.T) {
	p := Params11Mbps()
	for _, bd := range []Breakdown{
		p.InterleavedBreakdown(0, 0),
		p.InterleavedBreakdown(-1, 0.5),
		p.InterleavedBreakdown(1, 0),
		p.DownloadBreakdown(0),
	} {
		if bd.Total() != 0 {
			t.Errorf("degenerate breakdown = %+v, want zero", bd)
		}
	}
}

// TestTransferBreakdownRule: the charge rule is Eq. 3 exactly when
// compressed blocks crossed the wire and Eq. 1 otherwise — bit for bit
// the two closed forms, keyed on the block count and nothing else (a
// selective fetch whose blocks all went raw is a plain download even
// though its wire bytes exceed its raw bytes by the framing).
func TestTransferBreakdownRule(t *testing.T) {
	for _, p := range []Params{Params11Mbps(), Params2Mbps()} {
		const raw, wire = 300_000, 120_000
		if got, want := p.TransferBreakdown(raw, wire, 3), p.InterleavedBreakdown(0.3, 0.12); got != want {
			t.Errorf("compressed transfer = %+v, want Eq. 3 %+v", got, want)
		}
		if got, want := p.TransferBreakdown(raw, raw+39, 0), p.DownloadBreakdown(0.3); got != want {
			t.Errorf("all-raw transfer = %+v, want Eq. 1 %+v", got, want)
		}
	}
	if got := Params11Mbps().TransferBreakdown(0, 22, 0); got != (Breakdown{}) {
		t.Errorf("empty transfer = %+v, want zero", got)
	}
}

// TestParamsForMbps: only nominal 2 Mb/s selects the Section 4.2 set.
func TestParamsForMbps(t *testing.T) {
	if ParamsForMbps(2) != Params2Mbps() {
		t.Error("2 Mb/s must select Params2Mbps")
	}
	for _, mbps := range []float64{11, 5.5, 1} {
		if ParamsForMbps(mbps) != Params11Mbps() {
			t.Errorf("%g Mb/s must select Params11Mbps", mbps)
		}
	}
}
