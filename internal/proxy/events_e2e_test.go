package proxy

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/workload"
)

// TestEventExportEndToEnd drives the live (non-deterministic) telemetry
// path: a client sink must see one fetch event per Fetch with the right
// outcome class and model-exact joules, the server sink must see serve
// events via the tracer tee, and /eventsz must serve the ring with ?name=
// and ?limit= filtering. /tracez must honor the same filters.
func TestEventExportEndToEnd(t *testing.T) {
	srvSink := export.NewSink(nil, 32, 32)
	defer srvSink.Close()
	srv := NewServerWith(nil, Config{
		Tracer: obs.NewTracer(16),
		Events: srvSink,
	})
	srv.Register("f", workload.Generate(workload.ClassHTML, 300_000, 3))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()

	cliSink := export.NewSink(nil, 32, 32)
	defer cliSink.Close()
	cli := retryingClient(addr)
	cli.Tracer = obs.NewTracer(8)
	cli.Events = cliSink
	// A row other than the zero value's: the charge, the device token and
	// link_bps must all come from it.
	rate := energy.Rate2Mbps()
	cli.Rate = rate

	_, stats, err := cli.Fetch("f", codec.Gzip, ModeOnDemand)
	if err != nil {
		t.Fatal(err)
	}
	// The serve span finishes after the client has its last byte; wait for
	// it so the two serve events land in request order.
	waitFor(t, func() bool { return len(srvSink.Recent()) == 1 })
	if _, _, err := cli.Fetch("absent", codec.Gzip, ModeRaw); err == nil {
		t.Fatal("fetch of absent file succeeded")
	}

	// --- Client sink: both outcomes, identity fields, exact joules.
	waitFor(t, func() bool { return len(cliSink.Recent()) == 2 })
	evs := cliSink.Recent()
	ok := evs[0]
	if ok.Span != "fetch" || ok.Outcome != "ok" || ok.Name != "f" ||
		ok.Scheme != codec.Gzip.String() || ok.Mode != ModeOnDemand.String() ||
		ok.Device != rate.Device || ok.LinkBps != rate.BytesPerSec() {
		t.Errorf("ok event = %+v", ok)
	}
	if ok.RawBytes != int64(stats.RawBytes) || ok.WireBytes != int64(stats.WireBytes) ||
		ok.BlocksCompressed != stats.BlocksCompressed || ok.Attempts != stats.Attempts {
		t.Errorf("ok event bytes disagree with FetchStats: %+v vs %+v", ok, stats)
	}
	if ok.Time == "" || len(ok.Phases) == 0 {
		t.Errorf("live event missing wall time or phases: %+v", ok)
	}
	p := rate.ParamsFor(codec.Gzip)
	want := p.InterleavedEnergy(float64(stats.RawBytes)/1e6, float64(stats.WireBytes)/1e6)
	if math.Abs(ok.TotalJoules()-want) > 1e-9 {
		t.Errorf("ok event total = %g J, model says %g J", ok.TotalJoules(), want)
	}
	if bad := evs[1]; bad.Outcome != "notfound" || bad.Name != "absent" || bad.TotalJoules() != 0 {
		t.Errorf("failed event = %+v, want outcome notfound with no joules", bad)
	}

	// --- Server sink via the tracer tee, surfaced on /eventsz.
	waitFor(t, func() bool { return len(srvSink.Recent()) == 2 })
	var all []export.Event
	mustGetJSON(t, admin.URL+"/eventsz", &all)
	if len(all) != 2 {
		t.Fatalf("/eventsz returned %d events, want 2", len(all))
	}
	for _, e := range all {
		if e.Span != "serve" || e.ReqID == "" {
			t.Errorf("serve event = %+v", e)
		}
	}
	// Answering "not found" is a successful serve; the error class lives on
	// the client's fetch event, not the server's.
	if all[0].Name != "f" || all[1].Name != "absent" {
		t.Errorf("serve names = %q, %q; want f then absent", all[0].Name, all[1].Name)
	}

	var limited []export.Event
	mustGetJSON(t, admin.URL+"/eventsz?limit=1", &limited)
	if len(limited) != 1 || limited[0].Name != "absent" {
		t.Errorf("?limit=1 = %+v, want just the most recent serve (absent)", limited)
	}
	var none []export.Event
	mustGetJSON(t, admin.URL+"/eventsz?name=fetch", &none)
	if none == nil || len(none) != 0 {
		t.Errorf("?name=fetch = %+v, want empty (not null) array", none)
	}

	// --- /tracez takes the same filters.
	var spans []obs.SpanData
	mustGetJSON(t, admin.URL+"/tracez?name=serve&limit=1", &spans)
	if len(spans) != 1 || spans[0].Name != "serve" {
		t.Errorf("/tracez?name=serve&limit=1 = %+v", spans)
	}
	mustGetJSON(t, admin.URL+"/tracez?name=nosuch", &spans)
	if spans == nil || len(spans) != 0 {
		t.Errorf("/tracez?name=nosuch = %+v, want empty array", spans)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitServed blocks until the server has finished n requests and closed
// every connection. A request's latency sample trails the client's final
// byte, and a connection closes only once its client has closed it too,
// so counters read right after a fetch returns may still show the last
// request, or its connection, in flight: the clients must Close first.
func waitServed(t *testing.T, srv *Server, n int64) {
	t.Helper()
	waitFor(t, func() bool {
		st := srv.Stats()
		var served int64
		for _, b := range st.Latency {
			served += b.Count
		}
		return served == n && st.ConnsActive == 0
	})
}

func mustGetJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal(httpGet(t, url), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
