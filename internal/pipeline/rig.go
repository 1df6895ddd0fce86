package pipeline

import (
	"errors"
	"time"

	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/wlan"
)

// defaultSampleRate is the meter's samples per second; the paper reports
// "several hundred samples per second".
const defaultSampleRate = 300

// rig is the simulated testbed every figure-world run drives: one event
// kernel, the iPAQ on it, its WaveLAN link and the CPU worker, plus the
// bookkeeping that turns a finished run into a Result. The measurement
// window opens at time zero and closes when finish runs.
type rig struct {
	k      *sim.Kernel
	dev    *device.Device
	link   *wlan.Link
	worker *device.Worker

	transferEnd, totalEnd, stall time.Duration
	// finished flips when a run's finish callback actually ran; checking
	// it (instead of a totalEnd==0 sentinel) keeps zero-byte experiments,
	// whose end time legitimately is 0, from reporting a half-run result.
	finished bool
}

// newRig builds the testbed at rate (zero selects 11 Mb/s).
func newRig(rate energy.RateConfig) (*rig, error) {
	rate = rate.OrDefault()
	k := sim.NewKernel()
	dev := device.New(k, device.DefaultPowerTable())
	link, err := wlan.NewLink(k, dev, rate)
	if err != nil {
		return nil, err
	}
	return &rig{k: k, dev: dev, link: link, worker: device.NewWorker(k, dev)}, nil
}

// finish closes the measurement window now.
func (r *rig) finish() {
	r.totalEnd = r.k.Now()
	r.finished = true
}

// stop ends the transfer and the run at once: nothing is left to compute.
func (r *rig) stop() {
	r.transferEnd = r.k.Now()
	r.finish()
}

// drain marks the end of the transfer, runs the worker's remaining work
// uninterrupted and finishes when it completes.
func (r *rig) drain() {
	r.transferEnd = r.k.Now()
	r.k.At(r.worker.Drain(), r.finish)
}

// run plays the scheduled events out and reads the meter over the window.
func (r *rig) run(meterRate float64) (Result, error) {
	r.k.Run()
	if !r.finished {
		return Result{}, errors.New("pipeline: experiment did not complete")
	}
	m := meter(r.dev, r.totalEnd, meterRate)
	return Result{
		TransferSeconds:   r.transferEnd,
		TotalSeconds:      r.totalEnd,
		DecompressSeconds: r.worker.BusyTotal(),
		StallSeconds:      r.stall,
		MeteredEnergyJ:    m.energyJ,
		ExactEnergyJ:      m.exactJ,
		AvgCurrentMA:      m.avgMA,
		MaxCurrentMA:      m.maxMA,
	}, nil
}

// Drive runs script on a fresh testbed at rate (zero selects 11 Mb/s) and
// reports the time and energy from time zero until script's done callback
// ran — the entry point for studies that are not downloads of one file
// (internal/session's request sequences, Table 1's held states). script
// schedules its activity on k and calls done when the measured interval
// ends.
func Drive(rate energy.RateConfig, script func(k *sim.Kernel, dev *device.Device, link *wlan.Link, done func())) (Result, error) {
	r, err := newRig(rate)
	if err != nil {
		return Result{}, err
	}
	script(r.k, r.dev, r.link, r.stop)
	return r.run(0)
}

// reading is one metered window.
type reading struct {
	samples      int
	avgMA, maxMA float64
	// energyJ is avg-current × V × duration, the way the paper derives
	// energy from the meter; exactJ is the exact integral over the device
	// trace, for quantifying the sampling error.
	energyJ, exactJ float64
}

// meter reads dev's recorded current trace over [0, stop) the way the
// paper's HP 3458a did: one sample every 1/rate seconds after the trigger,
// so the reading carries a small, deterministic sampling error relative to
// the exact integral, just as the physical meter did. (The trigger
// interrupt's overhead is under 0.5% per the paper's measurement and is not
// modeled.)
func meter(dev *device.Device, stop time.Duration, rate float64) reading {
	if rate <= 0 {
		rate = defaultSampleRate
	}
	period := time.Duration(float64(time.Second) / rate)
	trace := dev.Trace()
	r := reading{exactJ: dev.EnergyJ(0, stop)}
	var sumMA float64
	seg := 0
	for t := period; t < stop; t += period {
		for seg+1 < len(trace) && trace[seg+1].Start <= t {
			seg++
		}
		i := trace[seg].CurrentMA
		if r.samples == 0 || i > r.maxMA {
			r.maxMA = i
		}
		sumMA += i
		r.samples++
	}
	if r.samples == 0 {
		// Window shorter than a sample period: fall back to the exact
		// integral, as a real operator would re-range the instrument.
		r.energyJ = r.exactJ
		if stop > 0 {
			r.avgMA = r.exactJ / device.SupplyVoltage / stop.Seconds() * 1000
		}
		return r
	}
	r.avgMA = sumMA / float64(r.samples)
	r.energyJ = device.SupplyVoltage * (r.avgMA / 1000) * stop.Seconds()
	return r
}
