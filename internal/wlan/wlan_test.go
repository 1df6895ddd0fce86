package wlan

import (
	"math"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/sim"
)

func setup(rate energy.RateConfig) (*sim.Kernel, *device.Device, *Link) {
	k := sim.NewKernel()
	d := device.New(k, device.DefaultPowerTable())
	l, err := NewLink(k, d, rate)
	if err != nil {
		panic(err)
	}
	return k, d, l
}

func TestDownloadTimeMatchesEffectiveRate(t *testing.T) {
	k, _, l := setup(energy.Rate11Mbps())
	done := time.Duration(-1)
	l.Download(600_000, nil, nil, func() { done = k.Now() })
	k.Run()
	if done < 0 {
		t.Fatal("onDone never fired")
	}
	// 0.6 MB at 0.6 MB/s ~= 1 s (+ setup, - final gap).
	got := done.Seconds()
	if math.Abs(got-1.0) > 0.02 {
		t.Errorf("download time %.4f s, want ~1.0", got)
	}
}

func TestPlainDownloadEnergyMatchesPaperLine(t *testing.T) {
	// E = 3.519*s + 0.012 J at 11 Mb/s, per the paper's fitted line.
	for _, sMB := range []float64{0.5, 1.0, 3.0, 8.0} {
		k, d, l := setup(energy.Rate11Mbps())
		var end time.Duration
		l.Download(int(sMB*1e6), nil, nil, func() { end = k.Now() })
		k.Run()
		got := d.EnergyJ(0, end)
		want := 3.519*sMB + 0.012
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("s=%.1f MB: E=%.4f J, want %.4f (±1%%)", sMB, got, want)
		}
	}
}

func TestIdleFractionObserved(t *testing.T) {
	k, d, l := setup(energy.Rate11Mbps())
	var end time.Duration
	l.Download(2_000_000, nil, nil, func() { end = k.Now() })
	k.Run()
	// Integrate time spent at the idle current (310 mA).
	trace := d.Trace()
	var idle time.Duration
	for i, seg := range trace {
		segEnd := end
		if i+1 < len(trace) {
			segEnd = trace[i+1].Start
		}
		if seg.CurrentMA == 310 && segEnd > seg.Start {
			idle += segEnd - seg.Start
		}
	}
	frac := idle.Seconds() / (end - SetupTime).Seconds()
	if math.Abs(frac-0.40) > 0.02 {
		t.Errorf("idle fraction %.3f, want ~0.40", frac)
	}
}

func TestPowerSaveWinsWithLongIdleTail(t *testing.T) {
	// Download followed by a long CPU-only phase (bzip2-style): with power
	// saving switched on once the last byte is in, as the pipeline's
	// sleep-during-decompress runs do, the busy device draws 340 mA
	// instead of 570 mA through the tail.
	n := 200_000
	tail := 3 * time.Second

	run := func(ps bool) float64 {
		k, d, l := setup(energy.Rate11Mbps())
		w := device.NewWorker(k, d)
		var end time.Duration
		l.Download(n, nil, nil, func() {
			d.SetPowerSave(ps)
			w.Add(tail)
			end = w.Drain()
		})
		k.Run()
		return d.EnergyJ(0, end)
	}
	eOff, eOn := run(false), run(true)
	if !(eOn < eOff) {
		t.Errorf("power save should win with a long decompress tail: %.3f vs %.3f J", eOn, eOff)
	}
}

func TestOnDeliveredMonotonic(t *testing.T) {
	k, _, l := setup(energy.Rate11Mbps())
	last := 0
	calls := 0
	l.Download(100_000, func(total int) {
		if total <= last {
			t.Fatalf("delivered total went backwards: %d after %d", total, last)
		}
		last = total
		calls++
	}, nil, nil)
	k.Run()
	if last != 100_000 {
		t.Errorf("final delivered %d", last)
	}
	wantCalls := (100_000 + PacketBytes - 1) / PacketBytes
	if calls != wantCalls {
		t.Errorf("delivered callbacks %d, want %d", calls, wantCalls)
	}
}

func TestGapWindowsGranted(t *testing.T) {
	k, d, l := setup(energy.Rate11Mbps())
	w := device.NewWorker(k, d)
	w.Add(50 * time.Millisecond)
	l.Download(500_000, nil, w, func() {})
	k.Run()
	if w.Pending() != 0 {
		t.Errorf("worker still has %v pending after ample gaps", w.Pending())
	}
	if w.BusyTotal() != 50*time.Millisecond {
		t.Errorf("busy total %v", w.BusyTotal())
	}
}

func TestInterleavingRaisesGapCurrentNotTime(t *testing.T) {
	n := 1_000_000
	// Baseline.
	k1, _, l1 := setup(energy.Rate11Mbps())
	var end1 time.Duration
	l1.Download(n, nil, nil, func() { end1 = k1.Now() })
	k1.Run()
	// With CPU work that fits comfortably in the gaps.
	k2, d2, l2 := setup(energy.Rate11Mbps())
	w := device.NewWorker(k2, d2)
	var end2 time.Duration
	l2.Download(n, func(total int) {
		w.Add(100 * time.Microsecond) // well under each ~1 ms gap
	}, w, func() { end2 = k2.Now() })
	k2.Run()
	if end2 != end1 {
		t.Errorf("interleaved work changed download time: %v vs %v", end2, end1)
	}
}

func TestZeroByteDownload(t *testing.T) {
	k, _, l := setup(energy.Rate11Mbps())
	called := false
	l.Download(0, nil, nil, func() { called = true })
	k.Run()
	if !called {
		t.Error("onDone not called for empty download")
	}
}

func TestRate2MbpsProfile(t *testing.T) {
	k, d, l := setup(energy.Rate2Mbps())
	var end time.Duration
	l.Download(1_000_000, nil, nil, func() { end = k.Now() })
	k.Run()
	if math.Abs(end.Seconds()-1.0/0.18) > 0.2 {
		t.Errorf("2 Mb/s download time %.2f s, want ~5.56", end.Seconds())
	}
	// Per-MB energy should be far higher than at 11 Mb/s (radio stays in
	// recv through the gaps): ~12.3 J/MB.
	e := d.EnergyJ(0, end)
	if e < 10 || e > 14 {
		t.Errorf("2 Mb/s per-MB energy %.2f J, want ~12.3", e)
	}
}

func TestInvalidRateRejected(t *testing.T) {
	k := sim.NewKernel()
	d := device.New(k, device.DefaultPowerTable())
	if _, err := NewLink(k, d, energy.RateConfig{EffectiveMBps: 0}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewLink(k, d, energy.RateConfig{EffectiveMBps: 1, IdleFrac: 1.5}); err == nil {
		t.Error("idle fraction > 1 accepted")
	}
}

func TestWorkerDrain(t *testing.T) {
	k := sim.NewKernel()
	d := device.New(k, device.DefaultPowerTable())
	w := device.NewWorker(k, d)
	w.Add(2 * time.Second)
	end := w.Drain()
	if end != 2*time.Second {
		t.Errorf("drain end %v", end)
	}
	k.Run()
	if d.CurrentMA() != device.DefaultPowerTable().IdleIdleOff {
		t.Error("CPU not idle after drain")
	}
	// The busy window charges busy-idle current.
	e := d.EnergyJ(0, 2*time.Second)
	want := 5 * 0.570 * 2
	if math.Abs(e-want) > 1e-9 {
		t.Errorf("drain energy %.4f, want %.4f", e, want)
	}
}
