package experiment

import (
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/wlan"
)

// TestModelConstantsMatchDeviceTables pins the two remaining copies of the
// paper's constants against each other: the analytic model's parameters
// (internal/energy) must be what the simulated device, link and cost tables
// (internal/device, internal/wlan) imply, until one is derived from the
// other.
func TestModelConstantsMatchDeviceTables(t *testing.T) {
	const v = device.SupplyVoltage
	pt := device.DefaultPowerTable()
	watts := func(mA float64) float64 { return v * mA / 1000 }
	td := device.DecompressCost(codec.Gzip)

	for _, link := range []struct {
		model    energy.Params
		rate     wlan.RateConfig
		idleMA   float64 // CPU idle in the inter-packet gaps
		decompMA float64 // CPU busy in the inter-packet gaps
	}{
		{energy.Params11Mbps(), wlan.Rate11Mbps(), pt.IdleIdleOff, pt.BusyIdleOff},
		// At 2 Mb/s the radio stays in receive through the gaps.
		{energy.Params2Mbps(), wlan.Rate2Mbps(), pt.IdleRecvOff, pt.BusyRecvOff},
	} {
		p, r := link.model, link.rate
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"RateMBps", p.RateMBps, r.EffectiveMBps},
			{"IdleFrac", p.IdleFrac, r.IdleFrac},
			{"M", p.M, watts(pt.NICServiceOff) * (1 - r.IdleFrac) / r.EffectiveMBps},
			{"Cs", p.Cs, watts(pt.IdleIdleOff) * wlan.SetupTime.Seconds()},
			{"Pi", p.Pi, watts(link.idleMA)},
			{"Pd", p.Pd, watts(link.decompMA)},
			{"PdSleep", p.PdSleep, watts(pt.BusyIdleOn)},
			{"PiSleep", p.PiSleep, watts(pt.IdleIdleOn)},
			{"TdA", p.TdA, td.PerOutMB},
			{"TdB", p.TdB, td.PerInMB},
			{"TdC", p.TdC, td.PerStream},
		} {
			if math.Abs(c.got-c.want) > 1e-3*math.Abs(c.want) {
				t.Errorf("%s %s: model %v, device tables give %v", r.Name, c.name, c.got, c.want)
			}
		}
	}
}
