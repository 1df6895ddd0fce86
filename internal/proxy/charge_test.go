package proxy

import (
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/workload"
)

// TestFetchChargedOnce: the client charges a finished fetch once, on its
// FetchStats, and every other reading of that fetch's joules is the same
// value — the span's per-class joules, the wide event's radio_j/cpu_j/idle_j
// — and it is the model's charge of the byte counts at the client's rate
// row, for every scheme, mode and measured rate.
func TestFetchChargedOnce(t *testing.T) {
	srv := NewServer(nil)
	// A mixed file: selective fetches send some blocks raw, some compressed.
	srv.Register("mixed.tar", workload.MixedFile(640_000, 4))
	for _, scheme := range codec.Schemes() {
		if err := srv.Precompress("mixed.tar", scheme); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, rate := range []energy.RateConfig{energy.Rate11Mbps(), energy.Rate2Mbps()} {
		sink := export.NewSink(nil, 64, 64)
		cli := NewClient(addr)
		cli.Rate = rate
		cli.Tracer = obs.NewTracer(64)
		cli.Events = sink
		n := 0
		for _, scheme := range codec.Schemes() {
			for _, mode := range []Mode{ModeRaw, ModePrecompressed, ModeOnDemand, ModeSelective} {
				_, stats, err := cli.Fetch("mixed.tar", scheme, mode)
				if err != nil {
					t.Fatalf("%s %v/%v: %v", rate.Name, scheme, mode, err)
				}
				n++
				at := func(what string) string { return rate.Name + " " + scheme.String() + "/" + mode.String() + " " + what }
				bd := stats.Energy
				if want := rate.ParamsFor(scheme).TransferBreakdown(stats.RawBytes, stats.WireBytes, stats.BlocksCompressed); bd != want || bd.Total() <= 0 {
					t.Errorf("%s = %+v, model of the byte counts %+v", at("FetchStats.Energy"), bd, want)
				}
				spans := cli.Tracer.Snapshot()
				byClass := spans[len(spans)-1].JoulesByClass()
				for _, c := range []struct {
					class     string
					got, want float64
				}{{obs.ClassRadio, byClass[obs.ClassRadio], bd.RadioJ}, {obs.ClassCPU, byClass[obs.ClassCPU], bd.CPUJ}, {obs.ClassIdle, byClass[obs.ClassIdle], bd.IdleJ}} {
					if math.Abs(c.got-c.want) > 1e-9*math.Max(1, math.Abs(c.want)) {
						t.Errorf("%s: span %s joules %v, FetchStats %v", at("span"), c.class, c.got, c.want)
					}
				}
				waitFor(t, func() bool { return len(sink.Recent()) == n })
				evs := sink.Recent()
				e := evs[len(evs)-1]
				if e.RadioJ != bd.RadioJ || e.CPUJ != bd.CPUJ || e.IdleJ != bd.IdleJ {
					t.Errorf("%s joules %v/%v/%v, FetchStats %+v", at("event"), e.RadioJ, e.CPUJ, e.IdleJ, bd)
				}
			}
		}
		cli.Close()
		sink.Close()
	}
}
