// Package wlan models the paper's Lucent WaveLAN (Orinoco) IEEE 802.11b
// link at packet granularity: a rate point of energy's table (effective
// data rate, CPU-idle fraction, the radio's state through the gaps) and
// per-packet active/idle alternation that creates the idle windows
// interleaved decompression reclaims. The link runs at the row's rate
// whatever the card's power-save state: no figure-world download runs
// with power saving on.
package wlan

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/sim"
)

// PacketBytes is the modeled per-packet payload (Ethernet-class MTU minus
// headers, as on the paper's TCP downloads).
const PacketBytes = 1460

// SetupTime is the connection start-up interval; at the idle-state current
// it charges the paper's fitted cs = 0.012 J
// (0.012 J / (5 V * 0.310 A) = 7.742 ms).
const SetupTime = 7742 * time.Microsecond

// GapConsumer receives the CPU-idle windows between packet arrivals;
// device.Worker implements it to run decompression inside them.
type GapConsumer interface {
	Window(d time.Duration)
}

// Link simulates downloads onto a device.
type Link struct {
	kernel *sim.Kernel
	dev    *device.Device
	rate   energy.RateConfig
	// gapRadio is the radio state during CPU-idle gaps.
	gapRadio device.RadioState
}

// NewLink returns a link for the device at the given rate.
func NewLink(k *sim.Kernel, dev *device.Device, rate energy.RateConfig) (*Link, error) {
	if rate.EffectiveMBps <= 0 || rate.IdleFrac < 0 || rate.IdleFrac >= 1 {
		return nil, fmt.Errorf("wlan: invalid rate config %+v", rate)
	}
	l := &Link{kernel: k, dev: dev, rate: rate, gapRadio: device.RadioIdle}
	if rate.RecvGaps {
		l.gapRadio = device.RadioRecv
	}
	return l, nil
}

// Download schedules the reception of n bytes starting now.
//
// Per packet: an active slice (radio recv + CPU servicing the NIC at the
// calibrated composite current) followed by a CPU-idle gap in the rate's
// gap radio state. onDelivered, if non-nil, runs at the end of each active
// slice with the cumulative byte count — block assembly and decompression
// scheduling hang off it. gaps, if non-nil, is granted each idle window.
// onDone runs when the last byte has been delivered; the final packet's
// idle gap is not part of the transfer.
func (l *Link) Download(n int, onDelivered func(total int), gaps GapConsumer, onDone func()) {
	l.start(transfer{n: n, setup: true, onDelivered: onDelivered, gaps: gaps, onDone: onDone})
}

// Transfer is Download without the connection setup charge, for chaining
// block transfers over an established connection (compression on demand).
// Unlike Download, the final packet's idle gap is kept (granted to gaps),
// since the stream continues with the next block.
func (l *Link) Transfer(n int, onDelivered func(total int), gaps GapConsumer, onDone func()) {
	l.start(transfer{n: n, keepGap: true, onDelivered: onDelivered, gaps: gaps, onDone: onDone})
}

// transfer is one pass of n bytes through the packet loop: whether it
// opens the connection, and whether the last packet's idle gap belongs to
// it.
type transfer struct {
	n           int
	setup       bool
	keepGap     bool
	onDelivered func(total int)
	gaps        GapConsumer
	onDone      func()
}

func (l *Link) start(x transfer) {
	if x.onDone == nil {
		x.onDone = func() {}
	}
	switch {
	case x.n <= 0:
		l.kernel.Schedule(0, x.onDone)
	case x.setup:
		// Connection setup: radio idle at the base state, charging ~cs.
		l.dev.SetRadio(device.RadioIdle)
		l.kernel.Schedule(SetupTime, func() { l.packet(x, 0) })
	default:
		l.packet(x, 0)
	}
}

// packet moves the next packet of x: an active slice, then the idle gap.
func (l *Link) packet(x transfer, moved int) {
	chunk := PacketBytes
	if chunk > x.n-moved {
		chunk = x.n - moved
	}
	interval := time.Duration(float64(chunk) / 1e6 / l.rate.EffectiveMBps * float64(time.Second))
	active := time.Duration(float64(interval) * (1 - l.rate.IdleFrac))
	gap := interval - active

	l.dev.SetRadio(device.RadioRecv)
	l.dev.SetNICActive(true)
	l.kernel.Schedule(active, func() {
		l.dev.SetNICActive(false)
		l.dev.SetRadio(l.gapRadio)
		moved += chunk
		if x.onDelivered != nil {
			x.onDelivered(moved)
		}
		after := func() { l.packet(x, moved) }
		if moved >= x.n {
			after = func() {
				l.dev.SetRadio(device.RadioIdle)
				x.onDone()
			}
			if !x.keepGap {
				after()
				return
			}
		}
		if x.gaps != nil {
			x.gaps.Window(gap)
		}
		l.kernel.Schedule(gap, after)
	})
}
