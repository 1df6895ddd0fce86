package repro_test

import (
	"math"
	"net"
	"testing"
	"time"

	"repro"
	"repro/internal/calib"
	"repro/internal/decider"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/pipeline"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wlan"
)

// TestRateTableAgrees reads every row of the rate table back from each
// place that uses it: the figure rig's plain download moves at the row's
// rate and idles for its share; the decider's link adaptation and the
// calibrator's reference are the row's model; and a client given the row
// charges and tags its fetch event from it (the zero value from the 11
// Mb/s row).
func TestRateTableAgrees(t *testing.T) {
	pt := device.DefaultPowerTable()
	for _, row := range energy.Rates() {
		const n = 2_000_000
		var dev *device.Device
		res, err := pipeline.Drive(row, func(k *sim.Kernel, d *device.Device, l *wlan.Link, done func()) {
			dev = d
			l.Download(n, nil, nil, done)
		})
		if err != nil {
			t.Fatal(err)
		}
		air := (res.TotalSeconds - wlan.SetupTime).Seconds()
		if rate := n / 1e6 / air; math.Abs(rate-row.EffectiveMBps)/row.EffectiveMBps > 0.01 {
			t.Errorf("%s: the rig moved %.4f MB/s, want %g", row.Name, rate, row.EffectiveMBps)
		}
		gapMA := pt.IdleIdleOff
		if row.RecvGaps {
			gapMA = pt.IdleRecvOff
		}
		var idle time.Duration
		trace := dev.Trace()
		for i, seg := range trace {
			end := res.TotalSeconds
			if i+1 < len(trace) {
				end = trace[i+1].Start
			}
			if seg.CurrentMA == gapMA && seg.Start >= wlan.SetupTime {
				idle += end - seg.Start
			}
		}
		if share := idle.Seconds() / air; math.Abs(share-row.IdleFrac) > 0.01 {
			t.Errorf("%s: the rig idled %.4f of the transfer at %g mA, want %g", row.Name, share, gapMA, row.IdleFrac)
		}

		want := row.Params()
		if got := decider.ParamsForLink(energy.Params11Mbps(), row.EffectiveMBps, false); got != want {
			t.Errorf("%s: ParamsForLink = %+v, want %+v", row.Name, got, want)
		}
		if got, ok := calib.RefParams(row.Device); !ok || got != want {
			t.Errorf("%s: RefParams(%q) = %+v, %v; want %+v", row.Name, row.Device, got, ok, want)
		}
		checkClientRate(t, row, row)
	}
	checkClientRate(t, energy.RateConfig{}, energy.Rate11Mbps())
}

// checkClientRate fetches one compressed file with a client given rate and
// holds its event to want's device token, effective rate and charge.
func checkClientRate(t *testing.T, rate, want energy.RateConfig) {
	t.Helper()
	clock := simnet.NewClock()
	nw := simnet.NewNetwork(clock, simnet.WaveLAN11())
	ln, err := nw.Listen("proxy")
	if err != nil {
		t.Fatal(err)
	}
	srv := repro.NewProxyServerWith(nil, repro.ProxyConfig{Clock: clock})
	srv.Register("page", repro.GenerateMixedFile(300_000, 7))
	srv.Serve(ln)
	defer srv.Close()
	sink := repro.NewEventSink(nil, 4, 4)
	cli := repro.NewProxyClient("proxy")
	defer cli.Close()
	cli.Clock = clock
	cli.Dial = func() (net.Conn, error) { return nw.Dial("proxy") }
	cli.Events = sink
	cli.Rate = rate
	var stats proxy.FetchStats
	clock.Run(func() {
		_, stats, err = cli.Fetch("page", repro.Gzip, repro.ProxyOnDemand)
	})
	if err != nil {
		t.Fatal(err)
	}
	sink.Close()
	evs := sink.Recent()
	if len(evs) != 1 {
		t.Fatalf("%s: %d events, want 1", want.Name, len(evs))
	}
	e := evs[0]
	bd := want.Params().TransferBreakdown(stats.RawBytes, stats.WireBytes, stats.BlocksCompressed)
	if e.Device != want.Device || e.LinkBps != want.BytesPerSec() ||
		e.RadioJ != bd.RadioJ || e.CPUJ != bd.CPUJ || e.IdleJ != bd.IdleJ {
		t.Errorf("%s: event %+v, want device %q, link_bps %g, joules %+v", want.Name, e, want.Device, want.BytesPerSec(), bd)
	}
	if stats.BlocksCompressed == 0 {
		t.Errorf("%s: no block compressed; the charge took Eq. 1, not Eq. 3", want.Name)
	}
}
