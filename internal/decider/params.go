// Link-state parameter adaptation and the calib.Fit → energy.Params
// adapter: the two input channels that turn the static Table 1 model
// into the live model DynamicDecider decides against.
package decider

import (
	"fmt"
	"math"
	"os"

	"repro/internal/calib"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/wlan"
)

// linkAnchors pins the rate-dependent coefficients (rate, idle fraction,
// m, pi, pd) at the 802.11b operating points, ordered by rate: 1, 2, 5.5,
// 11 Mb/s nominal. Each is an energy parameter set placed at a row of
// wlan's rate table: Section 4.2's 2 Mb/s set where the radio stays in
// receive through the CPU-idle gaps (1 and 2 Mb/s), Table 1's 11 Mb/s set
// where it idles between bursts (5.5 and 11 Mb/s). Between anchors the
// decider interpolates linearly; beyond them it clamps — extrapolating
// past the measured range would leave the model's validity envelope.
var linkAnchors = buildLinkAnchors()

func buildLinkAnchors() []energy.Params {
	rates := wlan.Rates() // fastest first
	anchors := make([]energy.Params, len(rates))
	for i, r := range rates {
		p := energy.Params11Mbps()
		if r.GapRadio == device.RadioRecv {
			p = energy.Params2Mbps()
		}
		p.RateMBps, p.IdleFrac = r.EffectiveMBps, r.IdleFrac
		anchors[len(rates)-1-i] = p
	}
	return anchors
}

// lerpAnchor interpolates the anchor table's rate-dependent coefficients
// at rate, clamping outside the measured range; the other fields of the
// result are an anchor's and carry no meaning.
func lerpAnchor(rate float64) energy.Params {
	a := linkAnchors[len(linkAnchors)-1]
	switch {
	case rate <= linkAnchors[0].RateMBps:
		a = linkAnchors[0]
	case rate < a.RateMBps:
		for i := 1; i < len(linkAnchors); i++ {
			lo, hi := linkAnchors[i-1], linkAnchors[i]
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

// ParamsForLink adapts base to a live link state. The rate-dependent
// coefficients (rate, idle fraction, idle/busy power) come from the
// measured anchor table; the calibration-bearing coefficients (td's
// a/b/c, the stream constant cs) stay base's, and the receive-copy m is
// scaled so a calibrated offset at base's own rate carries across rates
// proportionally (at the static Table 1 values the scaling is exactly 1,
// so ParamsForLink(Params11Mbps(), 0.6, false) == Params11Mbps()).
//
// Power-save mode costs wlan.PowerSavePenalty of the effective rate and
// drops the idle radio draw to the sleep-mode current (the radio dozes
// between beacons; receive still needs it awake, so pd is unchanged).
//
// The function is total: non-finite or non-positive rates read as base's
// rate, and the result is always finite with a strictly positive rate —
// FuzzDynamicDecide leans on this.
func ParamsForLink(base energy.Params, rateMBps float64, powerSave bool) energy.Params {
	rate := rateMBps
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		rate = base.RateMBps
	}
	rate = clampRate(rate)
	if powerSave {
		rate *= 1 - wlan.PowerSavePenalty
	}

	a := lerpAnchor(rate)
	p := base
	p.RateMBps = rate
	p.IdleFrac = a.IdleFrac

	// Carry a calibrated m across rates proportionally to the anchor
	// curve; a base already at an anchor value passes through unchanged.
	baseAnchor := lerpAnchor(clampRate(base.RateMBps))
	if baseAnchor.M > 0 && base.M > 0 {
		p.M = a.M * (base.M / baseAnchor.M)
	} else {
		p.M = a.M
	}
	p.Pi = a.Pi
	p.Pd = a.Pd
	if powerSave {
		// Idle gaps are spent dozing at the sleep current.
		if base.PiSleep > 0 {
			p.Pi = base.PiSleep
		}
	}
	return p
}

// clampRate reads an unusable rate as the 11 Mb/s operating point's and
// clamps to a physically meaningful band: 10 kB/s (far below 1 Mb/s
// nominal) up to 125 MB/s (gigabit); the model's closed forms stay finite
// and monotone inside it.
func clampRate(r float64) float64 {
	if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		r = energy.Params11Mbps().RateMBps
	}
	return math.Min(math.Max(r, 0.01), 125)
}

// ParamsFromFit overlays a fleet calibration on its reference parameter
// set: the fitted td(s, sc) coefficients replace Table 1's when the td
// regression ran, and the fitted E(s) line replaces the receive-copy m
// and stream constant cs when the energy regression ran. A group is
// applied only if each of its coefficients is finite and positive, as
// every Table 1 value is: a fit of a stale or hostile stream can leave the
// static set in place, never make a cost negative. The bool reports whether
// any fitted coefficient was applied — false means the caller should fall
// back to the static set (the fallback order README documents: calib →
// static).
func ParamsFromFit(f calib.Fit) (energy.Params, bool) {
	p := f.Ref
	if p.RateMBps <= 0 {
		p = energy.Params11Mbps()
	}
	applied := false
	if f.TdN > 0 && positiveAll(f.TdA, f.TdB, f.TdC) {
		p.TdA, p.TdB, p.TdC = f.TdA, f.TdB, f.TdC
		applied = true
	}
	if f.EN > 0 && positiveAll(f.M, f.EIntercept) {
		p.M = f.M
		p.Cs = f.EIntercept
		applied = true
	}
	return p, applied
}

func positiveAll(vs ...float64) bool {
	for _, v := range vs {
		if !(v > 0) || math.IsInf(v, 1) {
			return false
		}
	}
	return true
}

// LoadCalibration reads a wide-event JSONL stream (the telemetry export
// format), calibrates it, and returns the fit for the requested device
// class ("" means the first fitted device). It is the loader behind
// `proxyd -calib FILE` and the property suite's use of the committed
// soak-seed1 stream.
func LoadCalibration(path, device string) (calib.Fit, error) {
	f, err := os.Open(path)
	if err != nil {
		return calib.Fit{}, err
	}
	defer f.Close()
	fits, err := calib.FromJSONL(f)
	if err != nil {
		return calib.Fit{}, fmt.Errorf("calibrating %s: %w", path, err)
	}
	if len(fits) == 0 {
		return calib.Fit{}, fmt.Errorf("calibrating %s: no device had enough samples", path)
	}
	if device == "" {
		return fits[0], nil
	}
	for _, fit := range fits {
		if fit.Device == device {
			return fit, nil
		}
	}
	return calib.Fit{}, fmt.Errorf("calibrating %s: no fit for device %q", path, device)
}
