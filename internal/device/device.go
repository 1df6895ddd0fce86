// Package device models the handheld of the paper's testbed — a Compaq
// iPAQ 3650 with a WaveLAN 802.11b card — as a power-state machine whose
// electrical currents are the measurements of the paper's Table 1. Energy
// is the exact integral of supply voltage times state current over the
// simulated timeline; internal/pipeline's meter samples the same recorded
// trace the way the paper's HP 3458a did.
package device

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// SupplyVoltage is the external DC supply the paper substituted for the
// batteries.
const SupplyVoltage = 5.0

// CPUState is the processor activity level.
type CPUState int

// CPU states. ServiceNIC is the composite state while the WaveLAN card is
// actively transferring and the CPU is servicing the interface (the paper
// marks these rows '-' in Table 1: the CPU is not idle even when it runs no
// computational task).
const (
	CPUIdle CPUState = iota + 1
	CPUBusy
)

// RadioState is the WaveLAN card state.
type RadioState int

// Radio states of Table 1.
const (
	RadioSleep RadioState = iota + 1
	RadioIdle
	RadioRecv
)

func (s RadioState) String() string {
	switch s {
	case RadioSleep:
		return "sleep"
	case RadioIdle:
		return "idle"
	case RadioRecv:
		return "recv"
	default:
		return fmt.Sprintf("RadioState(%d)", int(s))
	}
}

func (s CPUState) String() string {
	switch s {
	case CPUIdle:
		return "idle"
	case CPUBusy:
		return "busy"
	default:
		return fmt.Sprintf("CPUState(%d)", int(s))
	}
}

// PowerTable holds device current draw in milliamps per state combination,
// following the paper's Table 1. Where Table 1 reports a range, the gzip
// decompression average (the parenthesised value) or the midpoint is used.
type PowerTable struct {
	// Current[cpu][radio][ps] in mA; indices via the small helpers below.
	IdleSleep   float64
	BusySleep   float64
	IdleIdleOff float64
	IdleIdleOn  float64
	BusyIdleOff float64
	BusyIdleOn  float64
	IdleRecvOff float64
	IdleRecvOn  float64
	BusyRecvOff float64
	BusyRecvOn  float64

	// NICServiceOff/On is the composite average current while the device
	// is actively receiving and copying packet data (radio recv + CPU
	// servicing the interface, with short copy bursts). It is calibrated
	// so the per-megabyte receive energy m matches the paper's fitted
	// m = 2.486 J/MB at the measured 0.6 MB/s effective rate with a 40%
	// idle fraction: m = V * I * (1-idleFrac)/rate => I = 497.2 mA.
	NICServiceOff float64
	NICServiceOn  float64
}

// DefaultPowerTable returns Table 1's currents (mA).
func DefaultPowerTable() PowerTable {
	return PowerTable{
		IdleSleep:   90,
		BusySleep:   310, // range 300-440, gzip average 310
		IdleIdleOff: 310,
		IdleIdleOn:  110,
		BusyIdleOff: 570, // range 530-670, gzip average 570
		BusyIdleOn:  340, // range 330-470, gzip average 340
		IdleRecvOff: 430,
		IdleRecvOn:  400,
		BusyRecvOff: 620, // midpoint of 550-690
		BusyRecvOn:  580, // midpoint of 470-690

		NICServiceOff: 497.2,
		NICServiceOn:  462.5,
	}
}

// Current returns the draw in mA for a state combination.
func (t PowerTable) Current(cpu CPUState, radio RadioState, ps bool) float64 {
	switch radio {
	case RadioSleep:
		if cpu == CPUBusy {
			return t.BusySleep
		}
		return t.IdleSleep
	case RadioIdle:
		switch {
		case cpu == CPUBusy && ps:
			return t.BusyIdleOn
		case cpu == CPUBusy:
			return t.BusyIdleOff
		case ps:
			return t.IdleIdleOn
		default:
			return t.IdleIdleOff
		}
	case RadioRecv:
		switch {
		case cpu == CPUBusy && ps:
			return t.BusyRecvOn
		case cpu == CPUBusy:
			return t.BusyRecvOff
		case ps:
			return t.IdleRecvOn
		default:
			return t.IdleRecvOff
		}
	default:
		return t.IdleIdleOff
	}
}

// Segment is one constant-current interval of the device trace.
type Segment struct {
	Start     time.Duration
	CurrentMA float64
}

// Device is the simulated handheld: a power-state machine on the event
// kernel that records a piecewise-constant current trace.
type Device struct {
	kernel *sim.Kernel
	table  PowerTable

	cpu       CPUState
	radio     RadioState
	powerSave bool
	nicActive bool

	trace []Segment
}

// New returns a device in the idle/idle/no-power-save state.
func New(k *sim.Kernel, table PowerTable) *Device {
	d := &Device{
		kernel: k,
		table:  table,
		cpu:    CPUIdle,
		radio:  RadioIdle,
	}
	d.trace = append(d.trace, Segment{Start: k.Now(), CurrentMA: d.CurrentMA()})
	return d
}

// CurrentMA returns the instantaneous current draw.
func (d *Device) CurrentMA() float64 {
	if d.nicActive {
		if d.powerSave {
			return d.table.NICServiceOn
		}
		return d.table.NICServiceOff
	}
	return d.table.Current(d.cpu, d.radio, d.powerSave)
}

func (d *Device) noteChange() {
	i := d.CurrentMA()
	last := &d.trace[len(d.trace)-1]
	if last.Start == d.kernel.Now() {
		last.CurrentMA = i
		return
	}
	if last.CurrentMA == i {
		return
	}
	d.trace = append(d.trace, Segment{Start: d.kernel.Now(), CurrentMA: i})
}

// SetCPU sets the processor state.
func (d *Device) SetCPU(s CPUState) {
	d.cpu = s
	d.noteChange()
}

// SetRadio sets the WaveLAN card state.
func (d *Device) SetRadio(s RadioState) {
	d.radio = s
	d.noteChange()
}

// SetPowerSave enables or disables the card's power-saving mode.
func (d *Device) SetPowerSave(on bool) {
	d.powerSave = on
	d.noteChange()
}

// SetNICActive marks the device as actively transferring packet data; while
// set it draws the calibrated composite service current regardless of CPU
// state (receiving runs in the kernel interrupt handler and preempts
// computation, as the paper describes).
func (d *Device) SetNICActive(on bool) {
	d.nicActive = on
	d.noteChange()
}

// Trace returns the recorded current trace (a copy).
func (d *Device) Trace() []Segment {
	out := make([]Segment, len(d.trace))
	copy(out, d.trace)
	return out
}

// EnergyJ integrates V*I over [from, to], which must lie within the
// simulated timeline (to may equal the current kernel time).
func (d *Device) EnergyJ(from, to time.Duration) float64 {
	if to > d.kernel.Now() {
		to = d.kernel.Now()
	}
	if from >= to {
		return 0
	}
	var joules float64
	for i := range d.trace {
		segStart := d.trace[i].Start
		segEnd := d.kernel.Now()
		if i+1 < len(d.trace) {
			segEnd = d.trace[i+1].Start
		}
		lo, hi := segStart, segEnd
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			joules += SupplyVoltage * (d.trace[i].CurrentMA / 1000) * hi.Seconds()
			joules -= SupplyVoltage * (d.trace[i].CurrentMA / 1000) * lo.Seconds()
		}
	}
	return joules
}
