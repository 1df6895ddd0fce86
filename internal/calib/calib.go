// Package calib is the calibration stage of the telemetry pipeline: it
// re-derives the paper's device energy-model parameters (Table 1,
// Figure 8a/8b) from an exported wide-event stream, exactly the way the
// paper derived them from measured traces — multiple linear regression
// for decompression time td = a·s + b·sc + c over compressed transfers,
// and simple linear regression for download energy E = m_eff·s + cs over
// uncompressed ones — then scores the fit against the hardcoded
// parameters (R², average relative error, per-coefficient deviation).
//
// On a soak's canonical event stream the fitted coefficients recover
// Table 1 essentially exactly, which makes calibration an end-to-end
// integrity oracle over the whole span/energy accounting path: any drift
// in how fetches are charged, exported or summed shows up as a
// coefficient deviation. It is also the data feed the queue-aware
// compression decider (ROADMAP) trains on.
package calib

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/energy"
	"repro/internal/fit"
	"repro/internal/obs/export"
)

// RefParams returns the hardcoded parameter set of the rate point whose
// events carry device (energy.RateConfig.Device), false for tokens the
// rate table does not hold. Events with no device tag calibrate against
// the paper's primary configuration, matching the client's default rate.
func RefParams(device string) (energy.Params, bool) {
	if device == "" {
		return energy.Params11Mbps(), true
	}
	r, ok := energy.RateForDevice(device)
	if !ok {
		return energy.Params{}, false
	}
	return r.Params(), true
}

// RefESlope is the reference E(s) slope: the Figure 8b m_eff that folds
// the idle term into the per-MB cost (3.519 J/MB at 11 Mb/s, from
// m + idleFrac·pi/rate).
func RefESlope(p energy.Params) float64 {
	return p.M + p.IdleFrac*p.Pi/p.RateMBps
}

// Fit is one device class's fitted model with its goodness-of-fit.
type Fit struct {
	Device string

	// td(s, sc) = TdA·s + TdB·sc + TdC, fitted by multiple regression
	// over TdN compressed transfers (td observed as cpu_j / pd).
	TdA, TdB, TdC float64
	TdN           int
	TdStats       fit.Stats

	// E(s) = ESlope·s + EIntercept, fitted by simple regression over EN
	// uncompressed transfers' total joules (Figure 8b's form).
	ESlope, EIntercept float64
	EN                 int
	EStats             fit.Stats

	// M is the receive-copy coefficient recovered from ESlope by removing
	// the idle term — directly comparable to Table 1's m.
	M float64

	// Ref is the hardcoded parameter set the fit is scored against.
	Ref energy.Params
}

// MaxCoefRelErr is the largest relative deviation of the five fitted
// coefficients (a, b, c, m_eff, cs) from their references.
func (f Fit) MaxCoefRelErr() float64 {
	rel := func(got, want float64) float64 {
		if want == 0 {
			return math.Abs(got)
		}
		return math.Abs(got-want) / math.Abs(want)
	}
	max := rel(f.TdA, f.Ref.TdA)
	for _, v := range []float64{
		rel(f.TdB, f.Ref.TdB),
		rel(f.TdC, f.Ref.TdC),
		rel(f.ESlope, RefESlope(f.Ref)),
		rel(f.EIntercept, f.Ref.Cs),
	} {
		if v > max {
			max = v
		}
	}
	return max
}

// Within reports whether every fitted coefficient sits within tol
// relative error of its reference.
func (f Fit) Within(tol float64) bool { return f.MaxCoefRelErr() <= tol }

// Calibrate groups an event stream by device class and fits each group,
// using successful fetch events only. Device classes without a reference
// parameter set, or with too few usable samples for either regression,
// are skipped (too few for both yields no Fit for that device). The
// result is sorted by device class.
func Calibrate(events []export.Event) ([]Fit, error) {
	byDev := make(map[string][]export.Event)
	for _, e := range events {
		if e.Span != "fetch" || e.Outcome != "ok" || e.RawBytes <= 0 {
			continue
		}
		byDev[e.Device] = append(byDev[e.Device], e)
	}
	devices := make([]string, 0, len(byDev))
	for d := range byDev {
		devices = append(devices, d)
	}
	sort.Strings(devices)

	var fits []Fit
	for _, dev := range devices {
		ref, ok := RefParams(dev)
		if !ok {
			continue
		}
		f, ok, err := calibrateOne(dev, ref, byDev[dev])
		if err != nil {
			return nil, fmt.Errorf("calib: device %q: %w", dev, err)
		}
		if ok {
			fits = append(fits, f)
		}
	}
	if len(fits) == 0 {
		return nil, fmt.Errorf("calib: no device class had enough usable events (need compressed and raw fetch events with outcome ok)")
	}
	return fits, nil
}

func calibrateOne(dev string, ref energy.Params, events []export.Event) (Fit, bool, error) {
	f := Fit{Device: dev, Ref: ref}

	// Compressed transfers observe td through the model's own charge:
	// cpu_j = td·pd, so td = cpu_j / pd — the event stream's equivalent
	// of the paper timing decompression runs.
	var tdX [][]float64
	var tdY []float64
	// Uncompressed transfers observe whole-download energy directly.
	var eX, eY []float64
	for _, e := range events {
		s := float64(e.RawBytes) / 1e6
		sc := float64(e.WireBytes) / 1e6
		if e.BlocksCompressed > 0 {
			if e.CPUJ <= 0 {
				continue
			}
			tdX = append(tdX, []float64{s, sc})
			tdY = append(tdY, e.CPUJ/ref.Pd)
		} else {
			eX = append(eX, s)
			eY = append(eY, e.TotalJoules())
		}
	}

	fitted := false
	if len(tdY) >= 4 {
		coef, err := fit.Multiple(tdX, tdY)
		if err == nil {
			f.TdA, f.TdB, f.TdC = coef[0], coef[1], coef[2]
			f.TdN = len(tdY)
			pred := make([]float64, len(tdY))
			for i, x := range tdX {
				pred[i] = f.TdA*x[0] + f.TdB*x[1] + f.TdC
			}
			f.TdStats, err = fit.Evaluate(pred, tdY)
			if err != nil {
				return f, false, err
			}
			fitted = true
		} else if err != fit.ErrSingular {
			return f, false, err
		}
	}
	if len(eY) >= 2 {
		slope, intercept, err := fit.Linear(eX, eY)
		if err == nil {
			f.ESlope, f.EIntercept = slope, intercept
			f.EN = len(eY)
			f.M = slope - ref.IdleFrac*ref.Pi/ref.RateMBps
			pred := make([]float64, len(eY))
			for i, x := range eX {
				pred[i] = slope*x + intercept
			}
			f.EStats, err = fit.Evaluate(pred, eY)
			if err != nil {
				return f, false, err
			}
			fitted = true
		} else if err != fit.ErrSingular {
			return f, false, err
		}
	}
	return f, fitted, nil
}

// FromJSONL reads an event stream and calibrates it.
func FromJSONL(r io.Reader) ([]Fit, error) {
	events, err := export.ReadJSONL(r)
	if err != nil {
		return nil, err
	}
	return Calibrate(events)
}

// Render prints the calibration report: fitted coefficients next to
// their Table 1 references with goodness-of-fit, one block per device.
func Render(fits []Fit) string {
	var b strings.Builder
	for _, f := range fits {
		ref := f.Ref
		fmt.Fprintf(&b, "calibration %s: %d compressed + %d raw samples\n", f.Device, f.TdN, f.EN)
		if f.TdN > 0 {
			fmt.Fprintf(&b, "  td(s,sc) = %.6f*s + %.6f*sc + %.6f   [table1 %.3f/%.3f/%.3f]  R2=%.6f avgrel=%.2e\n",
				f.TdA, f.TdB, f.TdC, ref.TdA, ref.TdB, ref.TdC, f.TdStats.R2, f.TdStats.AvgRelErr)
		}
		if f.EN > 0 {
			fmt.Fprintf(&b, "  E(s)     = %.6f*s + %.6f          [fig8b  %.3f/%.3f]      R2=%.6f avgrel=%.2e\n",
				f.ESlope, f.EIntercept, RefESlope(ref), ref.Cs, f.EStats.R2, f.EStats.AvgRelErr)
			fmt.Fprintf(&b, "  derived m = %.6f J/MB   [table1 %.3f]\n", f.M, ref.M)
		}
		within := "no"
		if f.Within(0.01) {
			within = "yes"
		}
		fmt.Fprintf(&b, "  max coefficient deviation %.2e (within 1%%: %s)\n", f.MaxCoefRelErr(), within)
	}
	return b.String()
}
