package device

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestTable1Currents(t *testing.T) {
	pt := DefaultPowerTable()
	cases := []struct {
		cpu   CPUState
		radio RadioState
		ps    bool
		want  float64
	}{
		{CPUIdle, RadioSleep, false, 90},
		{CPUBusy, RadioSleep, false, 310},
		{CPUIdle, RadioIdle, false, 310},
		{CPUIdle, RadioIdle, true, 110},
		{CPUBusy, RadioIdle, false, 570},
		{CPUBusy, RadioIdle, true, 340},
		{CPUIdle, RadioRecv, false, 430},
		{CPUIdle, RadioRecv, true, 400},
		{CPUBusy, RadioRecv, false, 620},
		{CPUBusy, RadioRecv, true, 580},
	}
	for _, c := range cases {
		if got := pt.Current(c.cpu, c.radio, c.ps); got != c.want {
			t.Errorf("Current(%v,%v,ps=%v) = %v, want %v", c.cpu, c.radio, c.ps, got, c.want)
		}
	}
}

func TestPowerSaveReducesIdleCurrent(t *testing.T) {
	pt := DefaultPowerTable()
	if !(pt.IdleIdleOn < pt.IdleIdleOff) {
		t.Error("power save must reduce idle current")
	}
	// The paper's observation: switching from idle to PS while busy drops
	// 570 -> 340 mA.
	if pt.BusyIdleOff-pt.BusyIdleOn != 230 {
		t.Errorf("busy idle off-on delta = %v", pt.BusyIdleOff-pt.BusyIdleOn)
	}
}

func TestNICServiceCalibration(t *testing.T) {
	// m = V * I * (1-idleFrac)/rate must equal the paper's 2.486 J/MB at
	// 0.6 MB/s effective rate with 40% idle.
	pt := DefaultPowerTable()
	m := SupplyVoltage * (pt.NICServiceOff / 1000) * (1 - 0.4) / 0.6
	if !almost(m, 2.486, 0.001) {
		t.Errorf("receive energy coefficient m = %.4f J/MB, want 2.486", m)
	}
}

func TestEnergyIntegration(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, DefaultPowerTable())
	// 1 s idle (310 mA), then 1 s busy (570 mA), then 1 s recv service.
	k.Schedule(time.Second, func() { d.SetCPU(CPUBusy) })
	k.Schedule(2*time.Second, func() {
		d.SetCPU(CPUIdle)
		d.SetNICActive(true)
	})
	k.Schedule(3*time.Second, func() { d.SetNICActive(false) })
	k.Run()

	if got := d.EnergyJ(0, time.Second); !almost(got, 5*0.310, 1e-9) {
		t.Errorf("idle second: %v J", got)
	}
	if got := d.EnergyJ(time.Second, 2*time.Second); !almost(got, 5*0.570, 1e-9) {
		t.Errorf("busy second: %v J", got)
	}
	if got := d.EnergyJ(2*time.Second, 3*time.Second); !almost(got, 5*0.4972, 1e-9) {
		t.Errorf("service second: %v J", got)
	}
	total := d.EnergyJ(0, 3*time.Second)
	if !almost(total, 5*(0.310+0.570+0.4972), 1e-9) {
		t.Errorf("total: %v J", total)
	}
}

func TestEnergyPartialWindow(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, DefaultPowerTable())
	k.Schedule(2*time.Second, func() {})
	k.Run()
	half := d.EnergyJ(500*time.Millisecond, 1500*time.Millisecond)
	if !almost(half, 5*0.310*1.0, 1e-9) {
		t.Errorf("partial window: %v", half)
	}
	if d.EnergyJ(time.Second, time.Second) != 0 {
		t.Error("empty window should be 0")
	}
}

func TestNICActiveOverridesCPU(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, DefaultPowerTable())
	d.SetCPU(CPUBusy)
	d.SetNICActive(true)
	if got := d.CurrentMA(); got != DefaultPowerTable().NICServiceOff {
		t.Errorf("NIC-active current %v", got)
	}
	d.SetNICActive(false)
	if got := d.CurrentMA(); got != 570 {
		t.Errorf("back to busy: %v", got)
	}
}

func TestTraceCoalescesEqualCurrents(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, DefaultPowerTable())
	k.Schedule(time.Second, func() { d.SetCPU(CPUIdle) }) // no-op change
	k.Run()
	if n := len(d.Trace()); n != 1 {
		t.Errorf("no-op state change grew trace to %d segments", n)
	}
}
