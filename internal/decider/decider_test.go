package decider

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/calib"
	"repro/internal/energy"
)

const goldenEvents = "../../testdata/events/soak-seed1.jsonl"

func closeTo(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// The anchor table is derived from energy.Rates() and the two energy
// parameter sets; it must come out as the four measured operating points
// the decider has always interpolated between (cached artifacts and
// PXY-P keys embed decisions made from them).
func TestLinkAnchorsAreTheMeasuredPoints(t *testing.T) {
	want := [][5]float64{ // rate MB/s, idle fraction, m, pi, pd
		{0.10, 0.87, 2.556, 2.15, 3.10},
		{0.18, 0.815, 2.556, 2.15, 3.10},
		{0.40, 0.55, 2.486, 1.55, 2.85},
		{0.60, 0.40, 2.486, 1.55, 2.85},
	}
	if len(linkAnchors) != len(want) {
		t.Fatalf("%d anchors, want %d", len(linkAnchors), len(want))
	}
	for i, a := range linkAnchors {
		if got := [5]float64{a.RateMBps, a.IdleFrac, a.M, a.Pi, a.Pd}; got != want[i] {
			t.Errorf("anchor %d = %v, want %v", i, got, want[i])
		}
	}
}

// At the 11 Mb/s anchor with the static Table 1 base, adaptation must be
// the identity: the dynamic decider with no live signal is exactly the
// paper's model.
func TestParamsForLinkIdentityAtBase(t *testing.T) {
	base := energy.Params11Mbps()
	got := ParamsForLink(base, base.RateMBps, false)
	if got != base {
		t.Fatalf("ParamsForLink at base rate changed params:\n got %+v\nwant %+v", got, base)
	}
}

// At the 2 Mb/s anchor the adapted coefficients must land on the
// Section 4.2 measured set (energy.Params2Mbps's rate-dependent fields).
func TestParamsForLinkMatches2Mbps(t *testing.T) {
	want := energy.Params2Mbps()
	got := ParamsForLink(energy.Params11Mbps(), want.RateMBps, false)
	if got.RateMBps != want.RateMBps || got.IdleFrac != want.IdleFrac ||
		got.M != want.M || got.Pi != want.Pi || got.Pd != want.Pd {
		t.Fatalf("ParamsForLink at 2Mbps: got rate=%g idle=%g m=%g pi=%g pd=%g, want %g/%g/%g/%g/%g",
			got.RateMBps, got.IdleFrac, got.M, got.Pi, got.Pd,
			want.RateMBps, want.IdleFrac, want.M, want.Pi, want.Pd)
	}
}

func TestParamsForLinkInterpolatesAndClamps(t *testing.T) {
	base := energy.Params11Mbps()
	mid := ParamsForLink(base, 0.29, false) // halfway between 0.18 and 0.40
	if mid.IdleFrac <= 0.55 || mid.IdleFrac >= 0.815 {
		t.Fatalf("interpolated idle frac %g outside (0.55, 0.815)", mid.IdleFrac)
	}
	lo := ParamsForLink(base, 0.02, false)
	if lo.IdleFrac != 0.87 {
		t.Fatalf("below-range idle frac %g, want clamp to 0.87", lo.IdleFrac)
	}
	hi := ParamsForLink(base, 10, false)
	if hi.IdleFrac != 0.40 {
		t.Fatalf("above-range idle frac %g, want clamp to 0.40", hi.IdleFrac)
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := ParamsForLink(base, bad, false)
		if p != base {
			t.Fatalf("rate %v should fall back to base, got %+v", bad, p)
		}
	}
}

func TestParamsForLinkPowerSave(t *testing.T) {
	base := energy.Params11Mbps()
	p := ParamsForLink(base, base.RateMBps, true)
	if !closeTo(p.RateMBps, base.RateMBps*0.75, 1e-12) {
		t.Fatalf("power-save rate %g, want %g", p.RateMBps, base.RateMBps*0.75)
	}
	if p.Pi != base.PiSleep {
		t.Fatalf("power-save idle draw %g, want sleep current %g", p.Pi, base.PiSleep)
	}
}

// parentAnchors are the four anchors ParamsForLink interpolated between
// before the rate table moved into energy, written out whole.
var parentAnchors = func() [4]energy.Params {
	recv := energy.Params{M: 2.556, Cs: 0.012, Pi: 2.15, Pd: 3.10, PdSleep: 1.70, PiSleep: 0.55, TdA: 0.161, TdB: 0.161, TdC: 0.004, BufMB: 0.128}
	idle := energy.Params{M: 2.486, Cs: 0.012, Pi: 1.55, Pd: 2.85, PdSleep: 1.70, PiSleep: 0.55, TdA: 0.161, TdB: 0.161, TdC: 0.004, BufMB: 0.128}
	a := [4]energy.Params{recv, recv, idle, idle}
	for i, ri := range [4][2]float64{{0.10, 0.87}, {0.18, 0.815}, {0.40, 0.55}, {0.6, 0.40}} {
		a[i].RateMBps, a[i].IdleFrac = ri[0], ri[1]
	}
	return a
}()

// parentParamsForLink is ParamsForLink as it read against parentAnchors.
func parentParamsForLink(base energy.Params, rate float64, powerSave bool) energy.Params {
	lerp := func(rate float64) energy.Params {
		a := parentAnchors[3]
		switch {
		case rate <= parentAnchors[0].RateMBps:
			a = parentAnchors[0]
		case rate < a.RateMBps:
			for i := 1; i < len(parentAnchors); i++ {
				lo, hi := parentAnchors[i-1], parentAnchors[i]
				if rate > hi.RateMBps {
					continue
				}
				t := (rate - lo.RateMBps) / (hi.RateMBps - lo.RateMBps)
				a.IdleFrac = lo.IdleFrac + t*(hi.IdleFrac-lo.IdleFrac)
				a.M = lo.M + t*(hi.M-lo.M)
				a.Pi = lo.Pi + t*(hi.Pi-lo.Pi)
				a.Pd = lo.Pd + t*(hi.Pd-lo.Pd)
				break
			}
		}
		a.RateMBps = rate
		return a
	}
	clamp := func(r float64) float64 {
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			r = 0.6
		}
		return math.Min(math.Max(r, 0.01), 125)
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		rate = base.RateMBps
	}
	rate = clamp(rate)
	if powerSave {
		rate *= 1 - 0.25
	}
	a := lerp(rate)
	p := base
	p.RateMBps, p.IdleFrac = rate, a.IdleFrac
	if baseAnchor := lerp(clamp(base.RateMBps)); baseAnchor.M > 0 && base.M > 0 {
		p.M = a.M * (base.M / baseAnchor.M)
	} else {
		p.M = a.M
	}
	p.Pi, p.Pd = a.Pi, a.Pd
	if powerSave && base.PiSleep > 0 {
		p.Pi = base.PiSleep
	}
	return p
}

// TestParamsForLinkUnchanged holds ParamsForLink, bit for bit, to what it
// answered against parentAnchors: over a sweep of rates from 0.005 to 130
// MB/s that lands on every anchor with power save off and on, on the
// static sets and on calibrated bases.
func TestParamsForLinkUnchanged(t *testing.T) {
	fit, err := LoadCalibration(goldenEvents, "")
	if err != nil {
		t.Fatal(err)
	}
	fitted, ok := ParamsFromFit(fit)
	if !ok {
		t.Fatal("the committed stream's fit did not apply")
	}
	odd := energy.Params11Mbps()
	odd.M, odd.TdA, odd.RateMBps = 2.71, 0.2, 0.33
	bases := map[string]energy.Params{
		"11Mb/s": energy.Params11Mbps(), "2Mb/s": energy.Params2Mbps(),
		"calibrated": fitted, "calibrated off-anchor": odd,
	}
	rates := []float64{0, -1, math.NaN(), math.Inf(1)}
	for _, a := range parentAnchors {
		rates = append(rates, a.RateMBps, a.RateMBps/(1-0.25))
	}
	for r := 0.005; r <= 130; r *= 1.01 {
		rates = append(rates, r)
	}
	for name, base := range bases {
		for _, r := range rates {
			for _, ps := range []bool{false, true} {
				got, want := ParamsForLink(base, r, ps), parentParamsForLink(base, r, ps)
				if got != want {
					t.Fatalf("%s base, rate %g, power save %v:\n got %+v\nwant %+v", name, r, ps, got, want)
				}
			}
		}
	}
}

func TestParamsFromFitOverlayAndFallback(t *testing.T) {
	ref := energy.Params11Mbps()
	f := calib.Fit{
		Ref: ref,
		TdA: 0.2, TdB: 0.15, TdC: 0.005, TdN: 10,
		M: 2.6, EIntercept: 0.014, EN: 5,
	}
	p, ok := ParamsFromFit(f)
	if !ok {
		t.Fatal("fit with samples should apply")
	}
	if p.TdA != 0.2 || p.TdB != 0.15 || p.TdC != 0.005 || p.M != 2.6 || p.Cs != 0.014 {
		t.Fatalf("overlay not applied: %+v", p)
	}
	if p.RateMBps != ref.RateMBps || p.Pi != ref.Pi {
		t.Fatalf("non-fitted fields must come from Ref: %+v", p)
	}

	p, ok = ParamsFromFit(calib.Fit{Ref: ref})
	if ok {
		t.Fatal("empty fit must report fallback")
	}
	if p != ref {
		t.Fatalf("fallback must return Ref unchanged: %+v", p)
	}

	// A fit with NaN coefficients must not poison the model.
	p, ok = ParamsFromFit(calib.Fit{Ref: ref, TdA: math.NaN(), TdN: 4, M: 2.5, EIntercept: 0.01, EN: 3})
	if !ok || p.TdA != ref.TdA || p.M != 2.5 {
		t.Fatalf("NaN td fit must keep Ref td and still apply E overlay: ok=%v %+v", ok, p)
	}
}

// TestParamsFromFitRefusesNonPositive: a fitted group with a coefficient
// that is zero, negative or infinite is refused as a NaN one is, and the
// other group still applies on its own merits.
func TestParamsFromFitRefusesNonPositive(t *testing.T) {
	ref := energy.Params11Mbps()
	for _, bad := range []float64{0, -0.004, math.Inf(1), math.Inf(-1)} {
		p, ok := ParamsFromFit(calib.Fit{Ref: ref, TdA: 0.2, TdB: 0.15, TdC: bad, TdN: 4, M: 2.5, EIntercept: 0.01, EN: 3})
		if !ok || p.TdA != ref.TdA || p.TdC != ref.TdC || p.M != 2.5 {
			t.Errorf("td fit with c = %g: ok=%v %+v, want Table 1 td and the E overlay", bad, ok, p)
		}
		p, ok = ParamsFromFit(calib.Fit{Ref: ref, M: 2.5, EIntercept: bad, EN: 3})
		if ok || p != ref {
			t.Errorf("E fit with cs = %g: ok=%v %+v, want Table 1 unchanged", bad, ok, p)
		}
	}
}

func TestMinSizeBytesNeverAboveStaticFloor(t *testing.T) {
	for _, rate := range []float64{0.6, 0.40, 0.18, 0.10} {
		rate := rate
		d := New(Config{Link: func() (float64, bool) { return rate, false }})
		min := d.MinSizeBytes()
		if min > energy.PaperFileThresholdBytes {
			t.Fatalf("rate %g: MinSizeBytes %d above static floor %d — dominance would break",
				rate, min, energy.PaperFileThresholdBytes)
		}
		if min < 1 {
			t.Fatalf("rate %g: MinSizeBytes %d", rate, min)
		}
		if again := d.MinSizeBytes(); again != min {
			t.Fatalf("cached MinSizeBytes %d != %d", again, min)
		}
	}
}

func TestEvaluateMatchesEnergyModelAtQueueZero(t *testing.T) {
	d := New(Config{})
	p := energy.Params11Mbps()
	ctx := BlockContext{RawLen: 128000, CompLen: 50000, RateMBps: p.RateMBps}
	rawJ, compJ, rawT, compT := d.Evaluate(ctx)
	s, sc := 0.128, 0.05
	if !closeTo(rawJ, p.DownloadEnergy(s), 1e-12) || !closeTo(rawT, p.DownloadTime(s), 1e-12) {
		t.Fatalf("raw option: got %g J %g s, want %g J %g s", rawJ, rawT, p.DownloadEnergy(s), p.DownloadTime(s))
	}
	if !closeTo(compJ, p.InterleavedEnergy(s, sc), 1e-12) || !closeTo(compT, p.InterleavedTime(s, sc), 1e-12) {
		t.Fatalf("comp option: got %g J %g s, want %g J %g s", compJ, compT, p.InterleavedEnergy(s, sc), p.InterleavedTime(s, sc))
	}
}

func TestQueueWaitPenalizesCompression(t *testing.T) {
	d := New(Config{})
	ctx := BlockContext{RawLen: 128000, CompLen: 50000, RateMBps: 0.6}
	_, compJ0, _, compT0 := d.Evaluate(ctx)
	ctx.QueueDepth = 8
	_, compJ8, _, compT8 := d.Evaluate(ctx)
	if compT8 <= compT0 || compJ8 <= compJ0 {
		t.Fatalf("queue depth must raise the compressed option's cost: t %g->%g, J %g->%g",
			compT0, compT8, compJ0, compJ8)
	}
	wantWait := 8 * 0.128 / serverMBps
	if !closeTo(compT8-compT0, wantWait, 1e-12) {
		t.Fatalf("queue wait %g, want %g", compT8-compT0, wantWait)
	}
}

// Under the static Table 1 family any compression that is slower than
// raw is also hungrier (every second of extra latency costs at least the
// idle draw, and compression's energy edge per saved second stays below
// the busy draw), so the deadline constraint never actually binds —
// energy minimization already refuses slow compression. A calibrated
// device with an expensive receive copy (large fitted m) breaks that
// alignment: compression saves many joules while its trailing decompress
// still adds latency on a small block. The strict class must then force
// raw and flag the constraint; an unconstrained class keeps the saving.
func TestDeadlineConstrainsCalibratedHotCopy(t *testing.T) {
	base := energy.Params11Mbps()
	base.M = 12 // J/MB receive copy: an extreme calibrated device
	d := New(Config{Base: base, Calibrated: true})
	ctx := BlockContext{RawLen: 6000, CompLen: 3000, RateMBps: 0.6, Class: ClassNone}
	free := d.Decide(ctx)
	if !free.Compress {
		t.Fatalf("hot-copy device should compress unconstrained: %+v", free)
	}
	_, _, rawT, compT := d.Evaluate(ctx)
	if compT <= rawT {
		t.Fatalf("test premise broken: compT %g must exceed rawT %g", compT, rawT)
	}
	ctx.Class = ClassStrict
	strict := d.Decide(ctx)
	if strict.Compress {
		t.Fatalf("strict class must refuse slower-than-raw compression: %+v", strict)
	}
	if !strict.Constrained {
		t.Fatal("deadline-forced raw must set Constrained")
	}
	if strict.StaticCompress {
		t.Fatal("premise: static Eq.6 must send this block raw")
	}
	// Dominance survives the veto: static sent it raw too, so the
	// dynamic choice matches static exactly.
	if strict.EnergyJ != strict.AltEnergyJ && strict.EnergyJ > free.AltEnergyJ {
		t.Fatalf("constrained raw must cost the static raw energy: %+v", strict)
	}
	// The relaxed class has slack for the trailing decompress.
	ctx.Class = ClassRelaxed
	if relaxed := d.Decide(ctx); !relaxed.Compress {
		t.Fatalf("relaxed class should admit the saving: %+v", relaxed)
	}
}

func TestStaticBaselineReconstruction(t *testing.T) {
	d := New(Config{})
	// Below the paper's file threshold the static decider never
	// compresses, whatever the ratio.
	dec := d.Decide(BlockContext{RawLen: 3899, CompLen: 100, RateMBps: 0.6})
	if dec.StaticCompress {
		t.Fatal("static baseline must respect the 3900-byte floor")
	}
	dec = d.Decide(BlockContext{RawLen: 128000, CompLen: 32000, RateMBps: 0.6})
	want := energy.PaperShouldCompress(128000, 32000)
	if dec.StaticCompress != want {
		t.Fatalf("static baseline %v, want Eq.6's %v", dec.StaticCompress, want)
	}
}

func TestBudgetIsAdvisoryOnly(t *testing.T) {
	d := New(Config{})
	ctx := BlockContext{RawLen: 1000000, CompLen: 200000, RateMBps: 0.6}
	base := d.Decide(ctx)
	ctx.BudgetJ, ctx.SpentJ = 0.001, 5
	tight := d.Decide(ctx)
	if tight.Compress != base.Compress || tight.EnergyJ != base.EnergyJ {
		t.Fatal("budget must never alter the decision")
	}
	if !tight.OverBudget {
		t.Fatal("spending past the budget must flag OverBudget")
	}
	ctx.BudgetJ, ctx.SpentJ = math.NaN(), math.Inf(1)
	if d.Decide(ctx).OverBudget {
		t.Fatal("non-finite budget inputs read as unbudgeted")
	}
}

func TestFingerprintDistinguishesPolicies(t *testing.T) {
	static := New(Config{})
	calibrated := New(Config{Base: energy.Params2Mbps(), Calibrated: true})
	if static.Fingerprint() == calibrated.Fingerprint() {
		t.Fatal("calibrated and static policies must not alias")
	}
	fps := map[string]bool{}
	for c := ClassNone; c <= ClassStrict; c++ {
		fps[static.WithClass(c, 0).Fingerprint()] = true
	}
	if len(fps) != 4 {
		t.Fatalf("4 deadline classes produced %d fingerprints", len(fps))
	}
	// The advisory budget must not shatter the cache.
	d1, fp1 := static.ForRequest(byte(ClassStandard), 1000)
	d2, fp2 := static.ForRequest(byte(ClassStandard), 999999)
	if fp1 != fp2 {
		t.Fatalf("budget leaked into the fingerprint: %q vs %q", fp1, fp2)
	}
	if d1.(*DynamicDecider).class != ClassStandard || d2.(*DynamicDecider).class != ClassStandard {
		t.Fatal("ForRequest must carry the class")
	}
}

func TestParseFingerprintRoundTrip(t *testing.T) {
	for _, d := range []*DynamicDecider{
		New(Config{}),
		New(Config{Base: energy.Params2Mbps(), Calibrated: true, Class: ClassStrict}),
		New(Config{Class: ClassRelaxed}),
	} {
		fp := d.Fingerprint()
		cfg, ok := parseFingerprint(fp)
		if !ok {
			t.Fatalf("parseFingerprint rejected %q", fp)
		}
		if got := New(cfg).Fingerprint(); got != fp {
			t.Fatalf("round trip drifted:\n in  %q\n out %q", fp, got)
		}
	}
	for _, bad := range []string{"", "static", "dynamic/v1", "dynamic/v1 rate=x"} {
		if _, ok := parseFingerprint(bad); ok {
			t.Fatalf("parseFingerprint accepted %q", bad)
		}
	}
}

func TestClassParsing(t *testing.T) {
	for _, c := range []Class{ClassNone, ClassRelaxed, ClassStandard, ClassStrict} {
		got, ok := ParseClass(c.String())
		if c == ClassNone {
			// "none" round-trips via its token.
			got, ok = ParseClass("none")
		}
		if !ok || got != c {
			t.Fatalf("class %d: parse(%q) = %d, %v", c, c.String(), got, ok)
		}
	}
	if _, ok := ParseClass("bogus"); ok {
		t.Fatal("unknown class token must not parse")
	}
	if ClassFromByte(200) != ClassNone {
		t.Fatal("unknown wire byte must fold to ClassNone")
	}
	if s := Class(77).Slack(); !math.IsInf(s, 1) {
		t.Fatalf("unknown class slack %g, want +Inf", s)
	}
}

func TestLoadCalibrationGolden(t *testing.T) {
	fit, err := LoadCalibration(goldenEvents, "")
	if err != nil {
		t.Fatal(err)
	}
	if fit.Device != "ipaq-11mbps" {
		t.Fatalf("device %q", fit.Device)
	}
	if !fit.Within(0.01) {
		t.Fatalf("committed calibration drifted: max rel err %g", fit.MaxCoefRelErr())
	}
	p, ok := ParamsFromFit(fit)
	if !ok {
		t.Fatal("golden fit must apply")
	}
	ref := energy.Params11Mbps()
	if !closeTo(p.TdA, ref.TdA, 0.01) || !closeTo(p.M, ref.M, 0.01) {
		t.Fatalf("fitted params far from Table 1: %+v", p)
	}
	if _, err := LoadCalibration(goldenEvents, "nosuch-device"); err == nil {
		t.Fatal("unknown device must error")
	}
	if _, err := LoadCalibration("nosuch-file.jsonl", ""); err == nil {
		t.Fatal("missing file must error")
	}
}

// parseFingerprint inverts Fingerprint: it reconstructs the policy
// configuration a fingerprint pins (hooks and budget are not part of a
// fingerprint and come back nil/zero). A decider rebuilt from the parse
// fingerprints identically — the fuzz target gates this round trip.
func parseFingerprint(s string) (Config, bool) {
	rest, ok := strings.CutPrefix(s, "dynamic/v1 ")
	if !ok {
		return Config{}, false
	}
	var cfg Config
	p := &cfg.Base
	var srv float64
	var classTok string
	fields := strings.Fields(rest)
	if len(fields) != 15 {
		return Config{}, false
	}
	targets := []struct {
		key string
		f   *float64
	}{
		{"rate", &p.RateMBps}, {"idle", &p.IdleFrac}, {"m", &p.M},
		{"cs", &p.Cs}, {"pi", &p.Pi}, {"pd", &p.Pd},
		{"pis", &p.PiSleep}, {"pds", &p.PdSleep},
		{"tda", &p.TdA}, {"tdb", &p.TdB}, {"tdc", &p.TdC},
		{"buf", &p.BufMB}, {"srv", &srv},
	}
	for i, t := range targets {
		if _, err := fmt.Sscanf(fields[i], t.key+"=%g", t.f); err != nil {
			return Config{}, false
		}
	}
	// The service rate is a constant, not a setting.
	if srv != serverMBps {
		return Config{}, false
	}
	if _, err := fmt.Sscanf(fields[13], "calib=%t", &cfg.Calibrated); err != nil {
		return Config{}, false
	}
	if _, err := fmt.Sscanf(fields[14], "class=%s", &classTok); err != nil {
		return Config{}, false
	}
	class, ok := ParseClass(classTok)
	if !ok {
		return Config{}, false
	}
	cfg.Class = class
	return cfg, true
}
