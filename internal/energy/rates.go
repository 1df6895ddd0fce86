package energy

// PowerSavePenalty is the effective-rate reduction in power-saving mode:
// "the effective data rate decreases by about 25% in the power-saving
// mode, due to the overhead to switch between the states".
const PowerSavePenalty = 0.25

// RateConfig is one 802.11b rate point of the paper's WaveLAN card: the one
// description the figure rig's link, the service testbed's link, the
// decider's link adaptation, the client's charge and its events' tags, and
// the calibrator's reference all read.
type RateConfig struct {
	Name          string
	NominalMbps   float64
	EffectiveMBps float64 // end-to-end data rate including idle gaps
	IdleFrac      float64 // CPU-idle fraction of total downloading time
	// RecvGaps is whether the radio stays in receive through the CPU-idle
	// gaps: at 11 Mb/s packets arrive in bursts and the radio idles between
	// them; at 2 Mb/s it stays in receive and only the CPU idles.
	RecvGaps bool
	// Device is the device-class token events at this rate carry, the
	// calibrator's grouping key.
	Device string
}

// rates is the table, fastest first. 11 Mb/s is Table 1's setting (602 KB/s
// measured, 40% CPU-idle); 2 Mb/s is Section 4.2's validation setting
// (180 KB/s, 81.5%). The paper measured no other rate: 5.5 Mb/s is
// interpolated and 1 Mb/s extrapolated.
var rates = [...]RateConfig{
	{Name: "11Mb/s", NominalMbps: 11, EffectiveMBps: 0.6, IdleFrac: 0.40, Device: "ipaq-11mbps"},
	{Name: "5.5Mb/s", NominalMbps: 5.5, EffectiveMBps: 0.40, IdleFrac: 0.55, Device: "ipaq-5.5mbps"},
	{Name: "2Mb/s", NominalMbps: 2, EffectiveMBps: 0.18, IdleFrac: 0.815, RecvGaps: true, Device: "ipaq-2mbps"},
	{Name: "1Mb/s", NominalMbps: 1, EffectiveMBps: 0.10, IdleFrac: 0.87, RecvGaps: true, Device: "ipaq-1mbps"},
}

// Rates returns the rate points, fastest first.
func Rates() []RateConfig { return append([]RateConfig(nil), rates[:]...) }

// Rate11Mbps is the paper's primary setting.
func Rate11Mbps() RateConfig { return rates[0] }

// Rate5_5Mbps is the intermediate 802.11b rate.
func Rate5_5Mbps() RateConfig { return rates[1] }

// Rate2Mbps is the validation setting of Section 4.2.
func Rate2Mbps() RateConfig { return rates[2] }

// Rate1Mbps is the lowest 802.11b rate.
func Rate1Mbps() RateConfig { return rates[3] }

// RateForMbps returns the rate point of a nominal bit rate, false for a
// rate the table does not hold.
func RateForMbps(nominalMbps float64) (RateConfig, bool) {
	return lookup(func(r RateConfig) bool { return r.NominalMbps == nominalMbps })
}

// RateForDevice returns the rate point whose events carry device, false
// for a token the table does not hold.
func RateForDevice(device string) (RateConfig, bool) {
	return lookup(func(r RateConfig) bool { return r.Device == device })
}

func lookup(match func(RateConfig) bool) (RateConfig, bool) {
	for _, r := range rates {
		if match(r) {
			return r, true
		}
	}
	return RateConfig{}, false
}

// OrDefault returns r, or the 11 Mb/s row when r has no effective rate (the
// zero RateConfig).
func (r RateConfig) OrDefault() RateConfig {
	if r.EffectiveMBps == 0 {
		return rates[0]
	}
	return r
}

// BytesPerSec is the effective rate in bytes per second.
func (r RateConfig) BytesPerSec() float64 { return r.EffectiveMBps * 1e6 }

// Params returns the model at r's effective rate and idle fraction, with
// Table 1's power structure where the radio idles through the gaps and
// Section 4.2's where it stays in receive: there Pi is the
// idle-CPU/receiving-radio power (430 mA → 2.15 W), decompressing in the
// gaps draws busy+recv (620 mA → 3.10 W), and the per-MB receive
// coefficient is slightly higher (longer active servicing per byte).
func (r RateConfig) Params() Params {
	p := Params{
		RateMBps: r.EffectiveMBps,
		IdleFrac: r.IdleFrac,
		M:        2.486,
		Cs:       0.012,
		Pi:       1.55,
		Pd:       2.85,
		PdSleep:  1.70,
		PiSleep:  0.55,
		TdA:      0.161,
		TdB:      0.161,
		TdC:      0.004,
		BufMB:    0.128,
	}
	if r.RecvGaps {
		p.M, p.Pi, p.Pd = 2.556, 2.15, 3.10
	}
	return p
}

// Params11Mbps returns the paper's primary experimental configuration.
func Params11Mbps() Params { return Rate11Mbps().Params() }

// Params2Mbps returns the Section 4.2 validation configuration.
func Params2Mbps() Params { return Rate2Mbps().Params() }
