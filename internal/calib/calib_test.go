package calib_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/calib"
	"repro/internal/energy"
	"repro/internal/harness"
	"repro/internal/obs/export"
)

// TestCalibrationRecoversTable1 is the pipeline's end-to-end oracle: run
// a fault-free soak, export its canonical telemetry, serialize it through
// JSONL, and re-fit the energy model purely from what came back. The
// fitted td(s, sc) and E(s) coefficients must recover the paper's
// Table 1 / Figure 8 parameters to within 1% relative error (in practice
// they match to float precision) with R² ≥ 0.999 — any drift anywhere in
// the span/charge/export/decode path breaks this.
func TestCalibrationRecoversTable1(t *testing.T) {
	sc := harness.Scenario{Seed: 1, Clients: 4, FetchesPerClient: 10}
	r, err := harness.Run(sc)
	if err != nil {
		t.Fatal(err)
	}

	// Through the wire format, not in-memory structs: the calibrator's
	// contract is the JSONL stream.
	var buf bytes.Buffer
	if err := export.WriteJSONL(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	fits, err := calib.FromJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 1 || fits[0].Device != export.DeviceIPAQ11 {
		t.Fatalf("fits = %+v, want exactly one for %s", fits, export.DeviceIPAQ11)
	}
	f := fits[0]
	if f.TdN < 4 || f.EN < 2 {
		t.Fatalf("too few samples: %d compressed, %d raw", f.TdN, f.EN)
	}
	if !f.Within(0.01) {
		t.Errorf("max coefficient deviation %g exceeds 1%%: %+v", f.MaxCoefRelErr(), f)
	}
	if f.TdStats.R2 < 0.999 || f.EStats.R2 < 0.999 {
		t.Errorf("R² = %g (td), %g (E), want ≥ 0.999 each", f.TdStats.R2, f.EStats.R2)
	}

	ref := energy.Params11Mbps()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"a", f.TdA, ref.TdA},
		{"b", f.TdB, ref.TdB},
		{"c", f.TdC, ref.TdC},
		{"m_eff", f.ESlope, calib.RefESlope(ref)},
		{"cs", f.EIntercept, ref.Cs},
		{"m", f.M, ref.M},
	} {
		if math.Abs(c.got-c.want) > 0.01*math.Abs(c.want) {
			t.Errorf("coefficient %s = %v, want %v", c.name, c.got, c.want)
		}
	}

	rep := calib.Render(fits)
	if !strings.Contains(rep, "within 1%: yes") {
		t.Errorf("report does not attest the fit:\n%s", rep)
	}
}

// TestCalibrateRejectsUnusableStreams: empty streams and streams with
// only failed fetches must error rather than report a vacuous fit.
func TestCalibrateRejectsUnusableStreams(t *testing.T) {
	if _, err := calib.Calibrate(nil); err == nil {
		t.Error("empty stream must not calibrate")
	}
	bad := []export.Event{
		{Span: "fetch", Outcome: "busy", RawBytes: 100, Device: export.DeviceIPAQ11},
		{Span: "serve", Outcome: "ok", RawBytes: 100, Device: export.DeviceIPAQ11},
	}
	if _, err := calib.Calibrate(bad); err == nil {
		t.Error("stream with no usable fetch events must not calibrate")
	}
}

// TestRefParams maps device tokens to Table 1 parameter sets and rejects
// unknown classes.
func TestRefParams(t *testing.T) {
	if p, ok := calib.RefParams(export.DeviceIPAQ11); !ok || p.RateMBps != energy.Params11Mbps().RateMBps {
		t.Errorf("11 Mb/s params wrong: %+v ok=%v", p, ok)
	}
	if p, ok := calib.RefParams(export.DeviceIPAQ2); !ok || p.RateMBps != energy.Params2Mbps().RateMBps {
		t.Errorf("2 Mb/s params wrong: %+v ok=%v", p, ok)
	}
	if _, ok := calib.RefParams("android-54mbps"); ok {
		t.Error("unknown device class must not resolve")
	}
}
