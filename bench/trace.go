package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// fetchTrace is the bench-owned root span of one traced fetch plus what
// the conn wrapper saw while it ran. The program's own client span (and,
// joined by request ID, its serve span) become the root's children.
type fetchTrace struct {
	pass, key  int
	start, end time.Time
	client     obs.SpanData
	joules     float64 // the bench's own model arithmetic for this fetch
	reads      int64
	writes     int64
	connBytes  int64 // both directions
	payload    int64 // block payload bytes of the artifact served
}

// collector keeps every span of a traced run in memory; nothing is
// written until the run ends. A nil collector absorbs everything, so the
// untraced path never branches on it.
type collector struct {
	srv *obs.Tracer

	mu      sync.Mutex
	on      bool
	fetches []fetchTrace
	serves  map[string]obs.SpanData // finished serve spans by request ID
}

func newCollector() *collector {
	c := &collector{srv: obs.NewTracer(1), serves: make(map[string]obs.SpanData)}
	c.srv.SetOnFinish(func(d obs.SpanData) {
		c.mu.Lock()
		if c.on {
			c.serves[d.Attrs["req_id"]] = d
		}
		c.mu.Unlock()
	})
	return c
}

// enable switches span retention; passes with it off are the untraced
// half of the tracing-overhead comparison.
func (c *collector) enable(on bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.on = on
	c.mu.Unlock()
}

// reset drops everything collected so far (the warm-up pass).
func (c *collector) reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.fetches = nil
	c.serves = make(map[string]obs.SpanData)
	c.mu.Unlock()
}

func (c *collector) fetch(pass, key int, start, end time.Time, client obs.SpanData, joules float64, payload int64, before, after connMeter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.on {
		return
	}
	c.fetches = append(c.fetches, fetchTrace{
		pass: pass, key: key, start: start, end: end, client: client, joules: joules, payload: payload,
		reads:     after.reads - before.reads,
		writes:    after.writes - before.writes,
		connBytes: (after.rbytes - before.rbytes) + (after.wbytes - before.wbytes),
	})
}

// phaseIntervals places a span's phases on the host clock.
func phaseIntervals(d obs.SpanData) []interval {
	ivs := make([]interval, 0, len(d.Phases))
	for _, p := range d.Phases {
		if p.Duration <= 0 {
			continue
		}
		s := d.Start.Add(p.Start).UnixNano()
		ivs = append(ivs, interval{s, s + int64(p.Duration)})
	}
	return ivs
}

// Phase names the program's spans use, mapped to the metric they feed.
var (
	clientPhases = map[string]string{
		"dial": "proxy.client_dial_ms", "header": "proxy.client_header_ms", "recv": "proxy.client_recv_ms",
		"decompress": "proxy.client_decompress_ms", "verify": "proxy.client_verify_ms",
	}
	serverPhases = map[string]string{
		"read-request": "proxy.server_read_request_ms",
		"cache-hit":    "proxy.server_lookup_ms", "cache-miss": "proxy.server_lookup_ms",
		"compress-on-demand": "proxy.server_compress_ms", "write-blocks": "proxy.server_write_blocks_ms",
	}
)

// spanMetrics turns the collected spans into the per-fetch phase medians
// and the unattributed shares. passK maps a pass index to its speed
// factor. It also runs the traced run's energy oracle: the joules the
// client charged each span must equal the bench's own arithmetic.
func (c *collector) spanMetrics(passK map[int]float64, out map[string]float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	samples := make(map[string][]float64)
	var rootNs, clientSelfNs, serveNs, serveSelfNs int64
	var reads, writes, connBytes, payload int64
	for _, ft := range c.fetches {
		k := passK[ft.pass]
		if j := ft.client.TotalJoules(); math.Abs(j-ft.joules) > 1e-9*math.Max(1, ft.joules) {
			return fmt.Errorf("fetch %s: client span carries %.12g J, the model gives %.12g J", ft.client.Attrs["req_id"], j, ft.joules)
		}
		perFetch := make(map[string]float64)
		for _, p := range ft.client.Phases {
			if m, ok := clientPhases[p.Name]; ok {
				perFetch[m] += ms(p.Duration) * k
			}
		}
		lo, hi := ft.start.UnixNano(), ft.end.UnixNano()
		rootNs += hi - lo
		clientSelfNs += selfTime(lo, hi, phaseIntervals(ft.client))
		if sv, ok := c.serves[ft.client.Attrs["req_id"]]; ok {
			for _, p := range sv.Phases {
				if m, ok := serverPhases[p.Name]; ok {
					perFetch[m] += ms(p.Duration) * k
				}
			}
			lo, hi := sv.Start.UnixNano(), sv.End.UnixNano()
			serveNs += hi - lo
			serveSelfNs += selfTime(lo, hi, phaseIntervals(sv))
		}
		for m, v := range perFetch {
			samples[m] = append(samples[m], v)
		}
		reads += ft.reads
		writes += ft.writes
		connBytes += ft.connBytes
		payload += ft.payload
	}
	for _, m := range clientPhases {
		out[m] = median(samples[m])
	}
	for _, m := range serverPhases {
		out[m] = median(samples[m])
	}
	if n := float64(len(c.fetches)); n > 0 {
		out["proxy.client_unattributed_pct"] = 100 * float64(clientSelfNs) / float64(rootNs)
		if serveNs > 0 {
			out["proxy.server_unattributed_pct"] = 100 * float64(serveSelfNs) / float64(serveNs)
		}
		out["proxy.client_reads_per_fetch"] = float64(reads) / n
		out["proxy.client_writes_per_fetch"] = float64(writes) / n
		// What is left of the conn's traffic without the block payloads is
		// framing.
		out["proxy.wire_overhead_bytes_per_fetch"] = float64(connBytes-payload) / n
	}
	return nil
}

// traceSpan is one line of the written trace: a span, the span that caused
// it, and the request they all belong to.
type traceSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	Req     string `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // host clock, from the first root's start
	DurNs   int64  `json:"dur_ns"`
	Detail  string `json:"detail,omitempty"`
}

// write dumps the spans of the first traced pass as
// <dir>/trace-<workload>.json. One pass is a complete sample of the
// request mix; the metrics above already cover every traced pass.
func (c *collector) write(dir, workload string, seed uint64) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.fetches) == 0 {
		return "", nil
	}
	firstPass := c.fetches[0].pass
	var epoch time.Time
	for _, ft := range c.fetches {
		if ft.pass == firstPass && (epoch.IsZero() || ft.start.Before(epoch)) {
			epoch = ft.start
		}
	}
	var spans []traceSpan
	add := func(parent int, req, name, detail string, start time.Time, dur time.Duration) int {
		id := len(spans) + 1
		spans = append(spans, traceSpan{ID: id, Parent: parent, Req: req, Name: name, StartNs: int64(start.Sub(epoch)), DurNs: int64(dur), Detail: detail})
		return id
	}
	addProgram := func(parent int, req, prefix string, d obs.SpanData) {
		id := add(parent, req, prefix, d.Attrs["name"]+" "+d.Attrs["scheme"]+" "+d.Attrs["mode"], d.Start, d.End.Sub(d.Start))
		for _, p := range d.Phases {
			add(id, req, prefix+"."+p.Name, p.Detail, d.Start.Add(p.Start), p.Duration)
		}
	}
	for _, ft := range c.fetches {
		if ft.pass != firstPass {
			continue
		}
		req := ft.client.Attrs["req_id"]
		root := add(0, req, "bench.fetch", "", ft.start, ft.end.Sub(ft.start))
		addProgram(root, req, "proxy.client", ft.client)
		if sv, ok := c.serves[req]; ok {
			addProgram(root, req, "proxy.server", sv)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Clock    string      `json:"clock"`
		Spans    []traceSpan `json:"spans"`
	}{workload, seed, "host nanoseconds since the first root span; not machine-normalised", spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
