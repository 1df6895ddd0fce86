package decider

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/calib"
	"repro/internal/energy"
)

// FuzzCalibrationFromJSONL feeds arbitrary bytes — a stale, truncated or
// hostile event file — to the loader behind `proxyd -calib`: calib.FromJSONL,
// then ParamsFromFit on every fit. Either the stream is refused, or each fit
// is one ParamsFromFit refuses, handing back the device's Table 1 set
// unchanged, or it yields parameters that are all finite and positive and
// under which the dynamic decider is never worse than Eq. 6 in modeled
// joules, over the swept link states, deadline classes and queue depths.
// The committed corpus (testdata/fuzz/FuzzCalibrationFromJSONL) holds the
// golden stream's head, a truncated line, fits that come out negative,
// numbers at the edge of float64, an unknown device and non-JSON.
func FuzzCalibrationFromJSONL(f *testing.F) {
	golden, err := os.ReadFile(goldenEvents)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	blocks := []propBlock{{1, 1}, {3900, 1200}, {20000, 19000}, {128000, 30000}, {128000, 128000}}
	f.Fuzz(func(t *testing.T, data []byte) {
		fits, err := calib.FromJSONL(bytes.NewReader(data))
		if err != nil {
			if fits != nil {
				t.Fatalf("refused (%v) but returned %d fits", err, len(fits))
			}
			return
		}
		for _, fit := range fits {
			ref, ok := calib.RefParams(fit.Device)
			if !ok || fit.Ref != ref {
				t.Fatalf("fit for device %q is scored against %+v, not its Table 1 set", fit.Device, fit.Ref)
			}
			p, applied := ParamsFromFit(fit)
			if !applied {
				if p != ref {
					t.Fatalf("refused fit for %q left %+v, not Table 1", fit.Device, p)
				}
				continue
			}
			v := reflect.ValueOf(p)
			for i := 0; i < v.NumField(); i++ {
				if x := v.Field(i).Float(); !(x > 0) || math.IsInf(x, 1) {
					t.Fatalf("fit for %q applied %s = %g: %+v", fit.Device, v.Type().Field(i).Name, x, fit)
				}
			}
			for _, rate := range sweptRates {
				for _, ps := range []bool{false, true} {
					for _, dl := range deadlineClasses {
						d := New(Config{Base: p, Calibrated: true, Class: dl})
						for _, queue := range []int{0, 4} {
							for _, b := range blocks {
								ctx := BlockContext{RawLen: b.rawLen, CompLen: b.compLen, RateMBps: rate.mbps, PowerSave: ps, QueueDepth: queue, Class: dl}
								dec := d.Decide(ctx)
								rawJ, compJ, _, _ := d.Evaluate(ctx)
								statJ := rawJ
								if staticChoice(b) {
									statJ = compJ
								}
								if !(dec.EnergyJ <= statJ*(1+1e-12)) {
									t.Fatalf("%s ps=%v dl=%s q=%d block %+v: dynamic %g J, static %g J under %+v",
										rate.name, ps, dl, queue, b, dec.EnergyJ, statJ, p)
								}
							}
						}
					}
				}
			}
		}
	})
}

// FuzzDynamicDecide throws arbitrary BlockContext values — negative and
// overflowing sizes, zero/NaN/Inf rates, hostile queue depths, unknown
// class bytes, garbage budgets — at the decider and requires totality:
// no panic, a finite deterministic Decision, dominance over the static
// baseline under the same scoring, and a decision that round-trips
// through the decider fingerprint (rebuilding the decider from its
// parsed fingerprint reproduces both the fingerprint and the decision).
func FuzzDynamicDecide(f *testing.F) {
	f.Add(128000, 50000, 0.6, false, 0, byte(0), 0.0, 0.0)
	f.Add(3899, 100, 0.18, true, 4, byte(1), 1.5, 0.2)
	f.Add(3900, 3900, 0.10, false, 32, byte(2), 0.0, 0.0)
	f.Add(0, 0, 0.0, false, 0, byte(3), math.Inf(1), math.NaN())
	f.Add(-1, -7, math.NaN(), true, -5, byte(200), -3.0, 1e300)
	f.Add(1<<40, 1<<39, math.Inf(1), false, 1<<30, byte(255), 1e-9, 0.0)
	f.Add(1, 1<<50, -1e308, true, 0, byte(4), 0.5, 0.5)
	f.Fuzz(func(t *testing.T, rawLen, compLen int, rate float64, ps bool, queue int, classB byte, budget, spent float64) {
		d := New(Config{Class: ClassFromByte(classB)})
		ctx := BlockContext{
			RawLen: rawLen, CompLen: compLen,
			RateMBps: rate, PowerSave: ps,
			QueueDepth: queue, Class: ClassFromByte(classB),
			BudgetJ: budget, SpentJ: spent,
		}
		dec := d.Decide(ctx)

		// Totality: every modeled number is finite (the deadline alone
		// may be +Inf, for the unconstrained class), never NaN.
		for name, v := range map[string]float64{
			"EnergyJ": dec.EnergyJ, "AltEnergyJ": dec.AltEnergyJ, "LatencyS": dec.LatencyS,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s = %v for ctx %+v", name, v, ctx)
			}
		}
		if math.IsNaN(dec.DeadlineS) {
			t.Fatalf("DeadlineS is NaN for ctx %+v", ctx)
		}

		// Determinism: the same context decides the same way twice.
		if again := d.Decide(ctx); again != dec {
			t.Fatalf("Decide not deterministic:\n first %+v\n again %+v", dec, again)
		}

		// Dominance against the static baseline under the same scoring.
		rawJ, compJ, _, _ := d.Evaluate(ctx)
		statJ := rawJ
		if dec.StaticCompress {
			statJ = compJ
		}
		if dec.EnergyJ > statJ*(1+1e-12)+1e-300 {
			t.Fatalf("dynamic %.9g J > static %.9g J for ctx %+v", dec.EnergyJ, statJ, ctx)
		}

		// The selective.Decider surface is total too.
		d.ShouldCompress(rawLen, compLen)
		if min := d.MinSizeBytes(); min < 1 || min > energy.PaperFileThresholdBytes {
			t.Fatalf("MinSizeBytes %d outside [1, %d]", min, energy.PaperFileThresholdBytes)
		}

		// Fingerprint round trip: parse → rebuild → identical fingerprint
		// and identical decision for this context.
		fp := d.Fingerprint()
		if fp2 := d.Fingerprint(); fp2 != fp {
			t.Fatalf("fingerprint unstable: %q vs %q", fp, fp2)
		}
		cfg, ok := parseFingerprint(fp)
		if !ok {
			t.Fatalf("own fingerprint does not parse: %q", fp)
		}
		rebuilt := New(cfg)
		if got := rebuilt.Fingerprint(); got != fp {
			t.Fatalf("fingerprint round trip drifted:\n in  %q\n out %q", fp, got)
		}
		if redec := rebuilt.Decide(ctx); redec != dec {
			t.Fatalf("rebuilt decider decides differently:\n orig    %+v\n rebuilt %+v", dec, redec)
		}
	})
}
