package pipeline

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/wlan"
)

// refMeter is the event-driven sampler the trace-derived meter replaced,
// kept as the reference it is checked against: it schedules one kernel
// event per sample between Trigger and Stop and reads the device's live
// current at each.
type refMeter struct {
	kernel *sim.Kernel
	dev    *device.Device
	rate   float64

	sampling bool
	stopAt   time.Duration
	samples  int
	sumMA    float64
	maxMA    float64
}

func (m *refMeter) Trigger() {
	m.sampling = true
	m.scheduleSample()
}

func (m *refMeter) scheduleSample() {
	period := time.Duration(float64(time.Second) / m.rate)
	m.kernel.Schedule(period, func() {
		if !m.sampling {
			return
		}
		i := m.dev.CurrentMA()
		if m.samples == 0 || i > m.maxMA {
			m.maxMA = i
		}
		m.sumMA += i
		m.samples++
		m.scheduleSample()
	})
}

func (m *refMeter) Stop() {
	m.sampling = false
	m.stopAt = m.kernel.Now()
}

func (m *refMeter) Reading() reading {
	r := reading{samples: m.samples, maxMA: m.maxMA, exactJ: m.dev.EnergyJ(0, m.stopAt)}
	if m.samples > 0 {
		r.avgMA = m.sumMA / float64(m.samples)
		r.energyJ = device.SupplyVoltage * (r.avgMA / 1000) * m.stopAt.Seconds()
	} else {
		r.energyJ = r.exactJ
		if m.stopAt > 0 {
			r.avgMA = r.exactJ / device.SupplyVoltage / m.stopAt.Seconds() * 1000
		}
	}
	return r
}

// TestMeterMatchesEventDrivenReference replays seeded random state traces
// under both meters. State changes and the stop are scheduled before the
// trigger, so at a shared instant they run before the reference's sample
// event — the order the figure-world runs have, and the one the
// trace-derived meter assumes (a sample sees every change at its instant,
// and none is taken at the stop instant).
func TestMeterMatchesEventDrivenReference(t *testing.T) {
	rate := 300.0
	period := time.Duration(float64(time.Second) / rate)
	windows := []time.Duration{
		0,                     // zero-length window
		period / 3,            // shorter than one period: exact-integral fallback
		period,                // the only sample instant is the stop instant
		7 * period,            // stop coincides with a sample instant
		2*time.Second + 12345, // long, unaligned
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stop := windows[int(seed)%len(windows)]
		if seed > 10 {
			stop = time.Duration(rng.Int63n(int64(3 * time.Second)))
		}
		k := sim.NewKernel()
		d := device.New(k, device.DefaultPowerTable())
		for i := 0; i < 400; i++ {
			at := time.Duration(rng.Int63n(int64(3 * time.Second)))
			if i%4 == 0 {
				at = period * time.Duration(1+rng.Intn(600)) // exactly on a sample instant
			}
			cpu := device.CPUIdle + device.CPUState(rng.Intn(2))
			radio := device.RadioSleep + device.RadioState(rng.Intn(4))
			ps, nic := rng.Intn(2) == 0, rng.Intn(4) == 0
			k.Schedule(at, func() {
				d.SetCPU(cpu)
				d.SetRadio(radio)
				d.SetPowerSave(ps)
				d.SetNICActive(nic)
			})
		}
		ref := &refMeter{kernel: k, dev: d, rate: rate}
		k.Schedule(stop, ref.Stop)
		ref.Trigger()
		k.Run()

		want, got := ref.Reading(), meter(d, stop, rate)
		if got != want {
			t.Errorf("seed %d, window %v:\n trace-derived %+v\n event-driven  %+v", seed, stop, got, want)
		}
	}
}

// held meters a fresh device over [0, stop): it starts in its initial state
// (310 mA) and poke, if non-nil, schedules state changes on it.
func held(stop time.Duration, poke func(k *sim.Kernel, d *device.Device)) reading {
	k := sim.NewKernel()
	d := device.New(k, device.DefaultPowerTable())
	if poke != nil {
		poke(k, d)
	}
	k.Schedule(stop, func() {})
	k.Run()
	return meter(d, stop, 300)
}

func TestConstantCurrentReading(t *testing.T) {
	r := held(2*time.Second, nil)
	if r.avgMA != 310 || r.maxMA != 310 {
		t.Errorf("avg/max = %v/%v", r.avgMA, r.maxMA)
	}
	want := 5 * 0.310 * 2
	if math.Abs(r.energyJ-want) > 1e-6 {
		t.Errorf("energy %v, want %v", r.energyJ, want)
	}
	if math.Abs(r.energyJ-r.exactJ) > 1e-6 {
		t.Errorf("sampled %v vs exact %v should agree on constant current", r.energyJ, r.exactJ)
	}
	if r.samples < 590 || r.samples > 610 {
		t.Errorf("samples %d, want ~600", r.samples)
	}
}

func TestMaxTracksStateChanges(t *testing.T) {
	r := held(3*time.Second, func(k *sim.Kernel, d *device.Device) {
		k.Schedule(time.Second, func() { d.SetCPU(device.CPUBusy) })
		k.Schedule(2*time.Second, func() { d.SetRadio(device.RadioSleep) })
	})
	if r.maxMA != 570 {
		t.Errorf("max %v, want 570 (busy+idle)", r.maxMA)
	}
}

func TestSamplingErrorSmall(t *testing.T) {
	// A fast square wave between states: the sampled average should land
	// within a couple percent of the exact integral.
	k := sim.NewKernel()
	d := device.New(k, device.DefaultPowerTable())
	var stop time.Duration
	for n := 0; n < 2000; n++ {
		cpu := device.CPUBusy
		if n%2 == 1 {
			cpu = device.CPUIdle
		}
		k.Schedule(stop, func() { d.SetCPU(cpu) })
		stop += time.Duration(1+(n+1)%3) * time.Millisecond
	}
	k.Schedule(stop, func() {})
	k.Run()
	r := meter(d, stop, 300)
	if rel := math.Abs(r.energyJ-r.exactJ) / r.exactJ; rel > 0.03 {
		t.Errorf("sampling error %.4f, want < 3%%", rel)
	}
}

func TestVeryShortWindowFallsBackToExact(t *testing.T) {
	r := held(time.Millisecond, nil) // < 1 sample period
	if r.samples != 0 {
		t.Errorf("expected 0 samples, got %d", r.samples)
	}
	want := 5 * 0.310 * 0.001
	if math.Abs(r.energyJ-want) > 1e-9 {
		t.Errorf("fallback energy %v, want %v", r.energyJ, want)
	}
}

func TestDriveWithoutDoneFails(t *testing.T) {
	_, err := Drive(energy.RateConfig{}, func(*sim.Kernel, *device.Device, *wlan.Link, func()) {})
	if err == nil {
		t.Error("a run whose window never closed reported a result")
	}
}
