package device

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestWorkerWindowPartialConsumption(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, DefaultPowerTable())
	w := NewWorker(k, d)
	w.Add(30 * time.Millisecond)
	if w.Pending() != 30*time.Millisecond {
		t.Fatalf("pending %v", w.Pending())
	}
	// A 10 ms window consumes 10 ms of work.
	w.Window(10 * time.Millisecond)
	k.Run()
	if w.Pending() != 20*time.Millisecond {
		t.Errorf("pending %v after window", w.Pending())
	}
	if w.BusyTotal() != 10*time.Millisecond {
		t.Errorf("busy total %v", w.BusyTotal())
	}
	if d.cpu != CPUIdle {
		t.Error("CPU not idle after window end")
	}
}

func TestWorkerWindowNoWork(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, DefaultPowerTable())
	d.SetCPU(CPUBusy)
	w := NewWorker(k, d)
	w.Window(time.Millisecond) // no pending work: must drop CPU to idle
	if d.cpu != CPUIdle {
		t.Error("empty window should idle the CPU")
	}
}

func TestWorkerSequentialWindowsAccumulate(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, DefaultPowerTable())
	w := NewWorker(k, d)
	w.Add(25 * time.Millisecond)
	// Three 10ms windows at 0, 20, 40 ms.
	for i := 0; i < 3; i++ {
		delay := time.Duration(i) * 20 * time.Millisecond
		k.Schedule(delay, func() { w.Window(10 * time.Millisecond) })
	}
	k.Schedule(50*time.Millisecond, func() {}) // extend the horizon
	k.Run()
	if w.Pending() != 0 {
		t.Errorf("pending %v", w.Pending())
	}
	if w.BusyTotal() != 25*time.Millisecond {
		t.Errorf("busy %v", w.BusyTotal())
	}
	// Busy time must appear in the energy trace: 25 ms at 570 mA, the
	// rest idle at 310 mA over the 50 ms horizon.
	busyJ := 5 * 0.570 * 0.025
	idleJ := 5 * 0.310 * 0.025
	got := d.EnergyJ(0, 50*time.Millisecond)
	if diff := got - (busyJ + idleJ); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("energy %.6f, want %.6f", got, busyJ+idleJ)
	}
}

func TestWorkerDrainEmpty(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, DefaultPowerTable())
	w := NewWorker(k, d)
	if end := w.Drain(); end != 0 {
		t.Errorf("empty drain end %v", end)
	}
}

func TestStateStrings(t *testing.T) {
	if CPUBusy.String() != "busy" || CPUIdle.String() != "idle" {
		t.Error("CPU state strings")
	}
	for s, want := range map[RadioState]string{
		RadioSleep: "sleep", RadioIdle: "idle", RadioRecv: "recv",
	} {
		if s.String() != want {
			t.Errorf("%d: %q", int(s), s.String())
		}
	}
}
