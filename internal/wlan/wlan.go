// Package wlan models the paper's Lucent WaveLAN (Orinoco) IEEE 802.11b
// link at packet granularity: nominal bit rates with their measured
// effective data rates and CPU-idle fractions, the power-saving mode's 25%
// throughput penalty, and per-packet active/idle alternation that creates
// the idle windows interleaved decompression reclaims.
package wlan

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/sim"
)

// PacketBytes is the modeled per-packet payload (Ethernet-class MTU minus
// headers, as on the paper's TCP downloads).
const PacketBytes = 1460

// PowerSavePenalty is the effective-rate reduction in power-saving mode:
// "the effective data rate decreases by about 25% in the power-saving
// mode, due to the overhead to switch between the states".
const PowerSavePenalty = 0.25

// SetupTime is the connection start-up interval; at the idle-state current
// it charges the paper's fitted cs = 0.012 J
// (0.012 J / (5 V * 0.310 A) = 7.742 ms).
const SetupTime = 7742 * time.Microsecond

// RateConfig describes one nominal 802.11b rate as the paper measured it.
type RateConfig struct {
	Name          string
	NominalMbps   float64
	EffectiveMBps float64 // end-to-end data rate including idle gaps
	IdleFrac      float64 // CPU-idle fraction of total downloading time
	// GapRadio is the radio state during CPU-idle gaps: at 11 Mb/s packets
	// arrive in bursts and the radio idles between them; at 2 Mb/s the
	// radio stays in receive essentially the whole time and only the CPU
	// idles.
	GapRadio device.RadioState
}

// Rate11Mbps is the paper's primary setting: ~0.6 MB/s effective
// (602 KB/s measured), 40% CPU-idle time.
func Rate11Mbps() RateConfig {
	return RateConfig{
		Name:          "11Mb/s",
		NominalMbps:   11,
		EffectiveMBps: 0.6,
		IdleFrac:      0.40,
		GapRadio:      device.RadioIdle,
	}
}

// Rate2Mbps is the validation setting of Section 4.2: 180 KB/s effective,
// 81.5% CPU-idle time.
func Rate2Mbps() RateConfig {
	return RateConfig{
		Name:          "2Mb/s",
		NominalMbps:   2,
		EffectiveMBps: 0.18,
		IdleFrac:      0.815,
		GapRadio:      device.RadioRecv,
	}
}

// Rate5_5Mbps interpolates the intermediate 802.11b rate (not measured by
// the paper; used by the bit-rate sweep example).
func Rate5_5Mbps() RateConfig {
	return RateConfig{
		Name:          "5.5Mb/s",
		NominalMbps:   5.5,
		EffectiveMBps: 0.40,
		IdleFrac:      0.55,
		GapRadio:      device.RadioIdle,
	}
}

// Rate1Mbps extrapolates the lowest 802.11b rate (not measured by the
// paper; used by the bit-rate sweep example).
func Rate1Mbps() RateConfig {
	return RateConfig{
		Name:          "1Mb/s",
		NominalMbps:   1,
		EffectiveMBps: 0.10,
		IdleFrac:      0.87,
		GapRadio:      device.RadioRecv,
	}
}

// Rates returns the configured rate points, fastest first.
func Rates() []RateConfig {
	return []RateConfig{Rate11Mbps(), Rate5_5Mbps(), Rate2Mbps(), Rate1Mbps()}
}

// GapConsumer receives the CPU-idle windows between packet arrivals;
// device.Worker implements it to run decompression inside them.
type GapConsumer interface {
	Window(d time.Duration)
}

// Link simulates downloads onto a device.
type Link struct {
	kernel *sim.Kernel
	dev    *device.Device
	rate   RateConfig
}

// NewLink returns a link for the device at the given rate.
func NewLink(k *sim.Kernel, dev *device.Device, rate RateConfig) (*Link, error) {
	if rate.EffectiveMBps <= 0 || rate.IdleFrac < 0 || rate.IdleFrac >= 1 {
		return nil, fmt.Errorf("wlan: invalid rate config %+v", rate)
	}
	return &Link{kernel: k, dev: dev, rate: rate}, nil
}

// EffectiveMBps returns the current effective data rate, accounting for
// the power-saving penalty.
func (l *Link) EffectiveMBps() float64 {
	r := l.rate.EffectiveMBps
	if l.dev.PowerSave() {
		r *= 1 - PowerSavePenalty
	}
	return r
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

// Upload schedules the transmission of n bytes starting now — the upload
// direction the paper's introduction raises ("lively captured voice and
// pictures") and leaves to future work. It mirrors Download with the radio
// in send states and the send-side composite current; the gaps are where
// compression of the next block can run, so onDone fires after the final
// one.
func (l *Link) Upload(n int, gaps GapConsumer, onDone func()) {
	l.start(transfer{n: n, send: true, setup: true, keepGap: true, gaps: gaps, onDone: onDone})
}

// transfer is one pass of n bytes through the packet loop: its direction,
// whether it opens the connection, and whether the last packet's idle gap
// belongs to it.
type transfer struct {
	n           int
	send        bool
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
	interval := time.Duration(float64(chunk) / 1e6 / l.EffectiveMBps() * float64(time.Second))
	active := time.Duration(float64(interval) * (1 - l.rate.IdleFrac))
	gap := interval - active

	radio, setNIC := device.RadioRecv, l.dev.SetNICActive
	if x.send {
		radio, setNIC = device.RadioSend, l.dev.SetNICSending
	}
	l.dev.SetRadio(radio)
	setNIC(true)
	l.kernel.Schedule(active, func() {
		setNIC(false)
		l.dev.SetRadio(l.rate.GapRadio)
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
