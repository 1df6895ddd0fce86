// Package session studies the radio idle-management policies the paper's
// Section 2 discusses: between user requests the WaveLAN card can stay
// idle (timely but power-hungry), use the hardware power-saving mode (the
// paper's choice: low idle draw, 25% throughput penalty), or sleep with a
// predictive wake-up heuristic in the style of Stemm & Katz [11] — whose
// "success rate highly depends on event predictability", quantified here.
package session

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/wlan"
)

// Policy is a radio idle-management strategy.
type Policy int

// The three policies of Section 2's discussion.
const (
	// AlwaysOn keeps the card idle-receptive between requests.
	AlwaysOn Policy = iota + 1
	// HardwarePS uses the card's power-saving mode: low idle draw, 25%
	// effective-rate penalty while transferring.
	HardwarePS
	// PredictiveSleep puts the card fully to sleep and wakes it with a
	// heuristic prediction of the next request; mispredictions delay the
	// response by the wake-up latency.
	PredictiveSleep
)

func (p Policy) String() string {
	switch p {
	case AlwaysOn:
		return "always-on"
	case HardwarePS:
		return "hardware-PS"
	case PredictiveSleep:
		return "predictive-sleep"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// WakeLatency is the penalty for a mispredicted wake-up (the card must be
// brought out of sleep when the request actually arrives: association +
// beacon wait).
const WakeLatency = 300 * time.Millisecond

// Request is one user fetch in a session.
type Request struct {
	// Gap is the think time before the request (card idle under the
	// policy).
	Gap time.Duration
	// Bytes is the (wire) size of the download.
	Bytes int
}

// Spec describes one session experiment.
type Spec struct {
	Requests []Request
	Policy   Policy
	// PredictAccuracy is the fraction of wake-ups the heuristic gets
	// right (PredictiveSleep only).
	PredictAccuracy float64
	// Seed drives the deterministic misprediction pattern.
	Seed int64
	// Rate is the link configuration (default 11 Mb/s).
	Rate energy.RateConfig
}

// Result summarises a session run.
type Result struct {
	Policy          Policy
	Requests        int
	TotalSeconds    float64
	EnergyJ         float64
	IdleEnergyJ     float64 // energy burnt between requests
	AvgExtraLatency time.Duration
	Mispredictions  int
}

// Run executes the session on the simulated device.
func Run(spec Spec) (Result, error) {
	if len(spec.Requests) == 0 {
		return Result{}, errors.New("session: no requests")
	}
	if spec.Policy == 0 {
		return Result{}, errors.New("session: policy not set")
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	res := Result{Policy: spec.Policy, Requests: len(spec.Requests)}
	var idleTime time.Duration
	var extraLatency time.Duration

	run, err := pipeline.Drive(spec.Rate, func(k *sim.Kernel, dev *device.Device, link *wlan.Link, done func()) {
		// idleState applies the between-request radio state.
		idleState := func() {
			switch spec.Policy {
			case AlwaysOn:
				dev.SetPowerSave(false)
				dev.SetRadio(device.RadioIdle)
			case HardwarePS:
				dev.SetPowerSave(true)
				dev.SetRadio(device.RadioIdle)
			case PredictiveSleep:
				dev.SetPowerSave(false)
				dev.SetRadio(device.RadioSleep)
			}
		}

		var doRequest func(i int)
		doRequest = func(i int) {
			if i >= len(spec.Requests) {
				done()
				return
			}
			req := spec.Requests[i]
			idleState()
			idleStart := k.Now()
			k.Schedule(req.Gap, func() {
				idleTime += k.Now() - idleStart
				delay := time.Duration(0)
				if spec.Policy == PredictiveSleep && rng.Float64() >= spec.PredictAccuracy {
					// Mispredicted: the card is asleep when the request
					// arrives and must be woken.
					delay = WakeLatency
					res.Mispredictions++
					extraLatency += WakeLatency
				}
				k.Schedule(delay, func() {
					// During transfers, hardware PS keeps its rate penalty;
					// the other policies run the radio at full rate.
					dev.SetPowerSave(spec.Policy == HardwarePS)
					link.Download(req.Bytes, nil, nil, func() { doRequest(i + 1) })
				})
			})
		}
		doRequest(0)
	})
	if err != nil {
		return Result{}, err
	}
	res.TotalSeconds = run.TotalSeconds.Seconds()
	res.EnergyJ = run.ExactEnergyJ
	// Idle energy: the policy's idle current over the accumulated gaps.
	pt := device.DefaultPowerTable()
	var idleMA float64
	switch spec.Policy {
	case AlwaysOn:
		idleMA = pt.IdleIdleOff
	case HardwarePS:
		idleMA = pt.IdleIdleOn
	case PredictiveSleep:
		idleMA = pt.IdleSleep
	}
	res.IdleEnergyJ = device.SupplyVoltage * (idleMA / 1000) * idleTime.Seconds()
	res.AvgExtraLatency = extraLatency / time.Duration(len(spec.Requests))
	return res, nil
}

// WebSession builds a deterministic browse-like request mix: n requests
// with think times around meanGap and page sizes around meanBytes.
func WebSession(n int, meanGap time.Duration, meanBytes int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Request, n)
	for i := range out {
		g := time.Duration(float64(meanGap) * (0.3 + 1.4*rng.Float64()))
		b := int(float64(meanBytes) * (0.2 + 1.6*rng.Float64()))
		if b < 1000 {
			b = 1000
		}
		out[i] = Request{Gap: g, Bytes: b}
	}
	return out
}
