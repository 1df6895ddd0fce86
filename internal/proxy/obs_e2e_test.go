package proxy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/workload"
)

// findHistogram returns the named histogram from a registry snapshot.
func findHistogram(t *testing.T, snap obs.Snapshot, name string) obs.HistogramSnapshot {
	t.Helper()
	for _, h := range snap.Histograms {
		if h.Name == name {
			return h
		}
	}
	t.Fatalf("histogram %q not in snapshot", name)
	return obs.HistogramSnapshot{}
}

// findCounter returns the named counter's value from a registry snapshot.
func findCounter(t *testing.T, snap obs.Snapshot, name string) int64 {
	t.Helper()
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %q not in snapshot", name)
	return 0
}

// promValue extracts a bare metric sample ("name 42") from Prometheus text.
func promValue(t *testing.T, text, name string) int64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %q not in exposition:\n%s", name, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %q value %q: %v", name, m[1], err)
	}
	return int64(v)
}

// httpGet fetches an admin endpoint body.
func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, body)
	}
	return body
}

// TestObservabilityEndToEnd is the acceptance test for the telemetry
// plane: against a fault-injected server, a traced fetch must retry and
// resume, and afterwards Server.Stats, /statsz, /metrics and /tracez must
// tell one consistent story, the client's span must carry per-phase joules
// summing to the energy model's answer for the same sizes, and the client
// registry must have recorded the backoff, resume and error-classification
// instruments. Shutdown must not leak goroutines.
func TestObservabilityEndToEnd(t *testing.T) {
	before := runtime.NumGoroutine()

	content := workload.Generate(workload.ClassHTML, 400_000, 7)
	// Cut the first connection mid-way through the second block, forcing
	// exactly one retry that resumes from the 128 000-byte block boundary.
	cut := GetHeaderLen + BlockHeaderLen + 128_000 + BlockHeaderLen + 1_000
	var conns atomic.Int64
	srvReg := obs.NewRegistry()
	srvTracer := obs.NewTracer(16)
	srv := NewServerWith(nil, Config{
		WrapConn: func(conn net.Conn) net.Conn {
			if conns.Add(1) == 1 {
				return &cutConn{Conn: conn, budget: cut}
			}
			return conn
		},
		Metrics: srvReg,
		Tracer:  srvTracer,
	})
	srv.Register("f", content)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()

	cli := retryingClient(addr)
	cliReg := obs.NewRegistry()
	cliTracer := obs.NewTracer(8)
	cli.Metrics = cliReg
	cli.Tracer = cliTracer

	// Fetch 1: raw mode through the cut — the block sizes on the wire are
	// the raw 128 000-byte blocks the budget was sized for, so the first
	// connection dies mid-block 2 and the retry resumes one verified block
	// in. This exercises the Eq. 1 (plain download) energy path.
	got, stats, err := cli.Fetch("f", codec.Gzip, ModeRaw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch")
	}
	if stats.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (cut must force one retry)", stats.Attempts)
	}
	if stats.ResumedBytes != 128_000 {
		t.Fatalf("resumed %d bytes, want 128000", stats.ResumedBytes)
	}
	if stats.BackoffSlept <= 0 {
		t.Error("BackoffSlept not recorded for a retried fetch")
	}

	// Fetches 2 and 3: compressed on demand — a cache miss that compresses,
	// then a hit on the same artifact. Fetch 2 exercises the Eq. 3
	// (interleaved) energy path.
	_, statsC, err := cli.Fetch("f", codec.Gzip, ModeOnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if statsC.BlocksCompressed == 0 {
		t.Fatal("on-demand fetch moved no compressed blocks")
	}
	if _, _, err := cli.Fetch("f", codec.Gzip, ModeOnDemand); err != nil {
		t.Fatal(err)
	}

	// --- Server side: Stats(), /statsz, /metrics and /tracez must agree.
	waitServed(t, srv, 4)
	ss := srv.Stats()
	if ss.ConnsTotal != 4 {
		t.Errorf("ConnsTotal = %d, want 4 (two attempts + miss + hit)", ss.ConnsTotal)
	}
	if ss.Requests != 4 {
		t.Errorf("Requests = %d, want 4", ss.Requests)
	}
	if ss.CacheHits < 1 || ss.Compressions < 1 {
		t.Errorf("cache story: hits=%d compressions=%d, want both ≥ 1", ss.CacheHits, ss.Compressions)
	}

	var statsz struct {
		Stats      Stats `json:"stats"`
		Goroutines int   `json:"goroutines"`
	}
	if err := json.Unmarshal(httpGet(t, admin.URL+"/statsz"), &statsz); err != nil {
		t.Fatal(err)
	}
	if statsz.Goroutines <= 0 {
		t.Error("statsz goroutines missing")
	}
	if fmt.Sprint(statsz.Stats) != fmt.Sprint(ss) {
		t.Errorf("/statsz disagrees with Server.Stats:\n%v\nvs\n%v", statsz.Stats, ss)
	}

	prom := string(httpGet(t, admin.URL+"/metrics"))
	for name, want := range map[string]int64{
		"proxy_requests_total":     ss.Requests,
		"proxy_conns_total":        ss.ConnsTotal,
		"proxy_cache_hits_total":   ss.CacheHits,
		"proxy_compressions_total": ss.Compressions,
	} {
		if got := promValue(t, prom, name); got != want {
			t.Errorf("/metrics %s = %d, Stats says %d", name, got, want)
		}
	}

	// --- Correlation: the client-minted request ID must appear on the
	// client span and on one server span per attempt.
	cspans := cliTracer.Snapshot()
	if len(cspans) != 3 {
		t.Fatalf("client tracer holds %d spans, want 3", len(cspans))
	}
	span1 := cspans[0]
	reqID := span1.Attrs["req_id"]
	if reqID == "" || reqID == obs.ReqID(0) {
		t.Fatalf("client span req_id = %q", reqID)
	}
	var tracez []obs.SpanData
	if err := json.Unmarshal(httpGet(t, admin.URL+"/tracez"), &tracez); err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, sp := range tracez {
		if sp.Attrs["req_id"] == reqID {
			matched++
		}
	}
	if matched != 2 {
		t.Errorf("server /tracez has %d spans with req_id %s, want 2 (one per attempt)", matched, reqID)
	}

	// --- Overlap: the 4-block miss is served while it is compressed, so its
	// serve span says how long the writer waited for the builder
	// (block-wait) next to the build itself and the writes; the hit that
	// follows waits for nobody.
	servePhases := func(clientSpan obs.SpanData) map[string]time.Duration {
		phases := make(map[string]time.Duration)
		for _, sp := range tracez {
			if sp.Attrs["req_id"] == clientSpan.Attrs["req_id"] {
				for _, ph := range sp.Phases {
					phases[ph.Name] += ph.Duration
				}
			}
		}
		return phases
	}
	miss, hit := servePhases(cspans[1]), servePhases(cspans[2])
	for _, name := range []string{"cache-miss", "compress-on-demand", "block-wait", "write-blocks"} {
		if _, ok := miss[name]; !ok {
			t.Errorf("miss serve span has no %q phase: %v", name, miss)
		}
	}
	if miss["block-wait"] <= 0 {
		t.Errorf("miss waited %v for the blocks of a %v build", miss["block-wait"], miss["compress-on-demand"])
	}
	if _, ok := hit["block-wait"]; ok {
		t.Errorf("hit serve span has a block-wait phase: %v", hit)
	}
	if _, ok := hit["cache-hit"]; !ok {
		t.Errorf("hit serve span has no cache-hit phase: %v", hit)
	}

	// --- Energy attribution: each span's per-phase joules must sum to the
	// model's whole-transfer answer for the same raw/wire sizes, per class.
	p := energy.Params11Mbps()
	closeTo := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
	}
	// Raw fetch (span 1): Eq. 1, no CPU component.
	bdRaw := p.DownloadBreakdown(float64(stats.RawBytes) / 1e6)
	byClass := span1.JoulesByClass()
	if !closeTo(byClass[obs.ClassRadio], bdRaw.RadioJ) {
		t.Errorf("raw-span radio joules %v, model says %v", byClass[obs.ClassRadio], bdRaw.RadioJ)
	}
	if byClass[obs.ClassCPU] != 0 {
		t.Errorf("raw-span cpu joules %v, want 0", byClass[obs.ClassCPU])
	}
	if !closeTo(byClass[obs.ClassIdle], bdRaw.IdleJ) {
		t.Errorf("raw-span idle joules %v, model says %v", byClass[obs.ClassIdle], bdRaw.IdleJ)
	}
	if want := p.DownloadEnergy(float64(stats.RawBytes) / 1e6); !closeTo(span1.TotalJoules(), want) {
		t.Errorf("raw-span total %v J, DownloadEnergy says %v J", span1.TotalJoules(), want)
	}
	// Compressed fetch (span 2): Eq. 3, all three components.
	spanC := cspans[1]
	s := float64(statsC.RawBytes) / 1e6
	sc := float64(statsC.WireBytes) / 1e6
	bd := p.InterleavedBreakdown(s, sc)
	byClassC := spanC.JoulesByClass()
	if !closeTo(byClassC[obs.ClassRadio], bd.RadioJ) {
		t.Errorf("radio joules %v, model says %v", byClassC[obs.ClassRadio], bd.RadioJ)
	}
	if !closeTo(byClassC[obs.ClassCPU], bd.CPUJ) {
		t.Errorf("cpu joules %v, model says %v", byClassC[obs.ClassCPU], bd.CPUJ)
	}
	if !closeTo(byClassC[obs.ClassIdle], bd.IdleJ) {
		t.Errorf("idle joules %v, model says %v", byClassC[obs.ClassIdle], bd.IdleJ)
	}
	if want := p.InterleavedEnergy(s, sc); !closeTo(spanC.TotalJoules(), want) {
		t.Errorf("span total %v J, InterleavedEnergy says %v J", spanC.TotalJoules(), want)
	}

	// --- Client instruments: backoff, resume and error classification.
	cs := cliReg.Snapshot()
	if h := findHistogram(t, cs, "client_backoff_sleep_seconds"); h.Count < 1 {
		t.Errorf("backoff histogram count = %d, want ≥ 1", h.Count)
	}
	h := findHistogram(t, cs, "client_resumed_bytes")
	if h.Count != 1 || h.Sum != float64(stats.ResumedBytes) {
		t.Errorf("resumed-bytes histogram count=%d sum=%v, FetchStats says %d", h.Count, h.Sum, stats.ResumedBytes)
	}
	if h := findHistogram(t, cs, "client_fetch_attempts"); h.Count != 3 || h.Sum != 4 {
		t.Errorf("attempts histogram count=%d sum=%v, want 3 fetches totalling 4 attempts", h.Count, h.Sum)
	}
	if v := findCounter(t, cs, "client_errors_transient_total"); v != 1 {
		t.Errorf("transient errors = %d, want 1", v)
	}
	if v := findCounter(t, cs, "client_errors_permanent_total"); v != 0 {
		t.Errorf("permanent errors = %d, want 0", v)
	}

	// --- Shutdown: /healthz flips to 503 and nothing leaks.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(admin.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after Close = %d, want 503", resp.StatusCode)
	}
	admin.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestPermanentErrorClassification: a not-found answer is the server's
// honest word, so it must land in the permanent counter and not be
// retried.
func TestPermanentErrorClassification(t *testing.T) {
	srv := NewServer(nil)
	srv.Register("present", []byte("x"))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := retryingClient(addr)
	cli.Metrics = obs.NewRegistry()
	_, stats, err := cli.Fetch("absent", codec.Gzip, ModeRaw)
	if err == nil {
		t.Fatal("fetch of absent file succeeded")
	}
	if stats.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (permanent errors must not retry)", stats.Attempts)
	}
	cs := cli.Metrics.Snapshot()
	if v := findCounter(t, cs, "client_errors_permanent_total"); v != 1 {
		t.Errorf("permanent errors = %d, want 1", v)
	}
	if v := findCounter(t, cs, "client_errors_transient_total"); v != 0 {
		t.Errorf("transient errors = %d, want 0", v)
	}
}
