package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/proxy"
	corpus "repro/internal/workload"
)

// loopClients is the closed loop's width. Two is this sandbox's core
// count; more would measure the scheduler, not the program.
const loopClients = 2

// corpusSeed generates every loopback corpus. File content is the same at
// every -seed on purpose: across ten seeds, content-driven differences in
// compression factor and decode time were several times the machine's own
// noise, and they would have forced bounds wide enough to hide a real
// regression. The run's seed shuffles the request order and mints the
// request IDs instead.
const corpusSeed = 2003

// fileGen describes one corpus file; content is a pure function of
// (size, seed).
type fileGen struct {
	name string
	size int
	gen  func(size int, seed uint64) []byte
}

func classGen(c corpus.Class) func(int, uint64) []byte {
	return func(size int, seed uint64) []byte { return corpus.Generate(c, size, seed) }
}

// gzipFactor is the Measurer GenerateRatio calibrates against, the same
// gzip -6 the harness wires in.
func gzipFactor(b []byte) float64 {
	c, err := codec.MustNew(codec.Gzip, 6).Compress(b)
	if err != nil {
		return 1 // cannot happen on generated input; read as incompressible
	}
	return codec.Factor(len(b), len(c))
}

// smallFiles: three sit below the 3,900-byte file threshold, so selective
// mode sends them raw; none is large enough for a codec to matter.
var smallFiles = []fileGen{
	{"note.mail", 1200, classGen(corpus.ClassMail)},
	{"rc.sh", 2400, classGen(corpus.ClassScript)},
	{"stub.html", 3600, classGen(corpus.ClassHTML)},
	{"feed.xml", 6000, classGen(corpus.ClassXML)},
	{"access.log", 9000, classGen(corpus.ClassWebLog)},
	{"thread.mail", 12000, classGen(corpus.ClassMail)},
	{"page.html", 18000, classGen(corpus.ClassHTML)},
	{"catalog.xml", 24000, classGen(corpus.ClassXML)},
}

// largeFiles span the compressibility range: text that compresses 4-10x,
// a binary at ~2x, a text/random mixture whose blocks selective mode must
// split, and a barely compressible file it must send raw.
var largeFiles = []fileGen{
	{"prog.c", 256 << 10, classGen(corpus.ClassSource)},
	{"spec.html", 512 << 10, classGen(corpus.ClassHTML)},
	{"tool.bin", 384 << 10, classGen(corpus.ClassBinary)},
	{"paper.ps", 768 << 10, classGen(corpus.ClassPostscript)},
	{"deck.mixed", 1 << 20, corpus.MixedFile},
	{"media.r115", 512 << 10, func(size int, seed uint64) []byte {
		return corpus.GenerateRatio(size, 1.15, seed, gzipFactor)
	}},
}

// loopSpec is a loopback workload's shape.
type loopSpec struct {
	files []fileGen
	modes [2]proxy.Mode
	// reps is how many times each client fetches every key per pass.
	reps int
	// cold marks the miss workload: files are re-registered before every
	// pass, each pass fetches one third of the keys, and the two clients
	// take disjoint halves so no request can coalesce with another.
	cold bool
	// scaleSizes makes -scale shrink the files rather than the request
	// list (the smoke test's way of keeping large-file workloads short).
	scaleSizes bool
}

var loopSpecs = map[string]loopSpec{
	"hit-small":  {files: smallFiles, modes: [2]proxy.Mode{proxy.ModePrecompressed, proxy.ModeSelective}, reps: 12},
	"hit-large":  {files: largeFiles, modes: [2]proxy.Mode{proxy.ModePrecompressed, proxy.ModeSelective}, reps: 1, scaleSizes: true},
	"miss-large": {files: largeFiles, modes: [2]proxy.Mode{proxy.ModeOnDemand, proxy.ModeSelective}, cold: true, scaleSizes: true},
}

const missCycle = 3

// fetchKey is one (file, scheme, mode) request.
type fetchKey struct {
	file   int
	scheme codec.Scheme
	mode   proxy.Mode
}

// connMeter is what the conn wrapper records for the fetch in flight. Only
// the client goroutine that owns the conn touches it.
type connMeter struct {
	reads, writes  int64
	rbytes, wbytes int64
	firstByte      time.Time
	dialErrors     int64
}

type meteredConn struct {
	net.Conn
	m *connMeter
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.m.reads++
	if n > 0 {
		if c.m.firstByte.IsZero() {
			c.m.firstByte = time.Now()
		}
		c.m.rbytes += int64(n)
	}
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.m.writes++
	c.m.wbytes += int64(n)
	return n, err
}

// loopClient is one closed-loop handheld.
type loopClient struct {
	cli   *proxy.Client
	meter connMeter
	// tracer and last exist on traced runs only: last is the client span
	// of the fetch that just finished (the tracer's finish hook runs on
	// this client's goroutine), payload memoises each key's artifact size.
	tracer  *obs.Tracer
	last    obs.SpanData
	payload map[int]int64
}

// socketSeq keeps abstract socket names unique within the process.
var socketSeq atomic.Int64

// loopback runs the real proxy.Server and proxy.Clients in this process
// over a unix-domain stream socket.
type loopback struct {
	spec  loopSpec
	seed  uint64
	scale float64
	trace *collector // nil on untraced runs

	contents [][]byte
	keys     []fetchKey
	// phases[p] is what a pass at position p of the cycle fetches, as
	// indices into keys: per client on the hit workloads, split between
	// the clients on the miss workload.
	phases  [][]int
	srv     *proxy.Server
	addr    string
	clients []*loopClient
	params  energy.Params
	base    proxy.Stats // counters after setup; oracles judge the delta
}

func newLoopback(name string, seed uint64, scale float64, trace *collector) *loopback {
	return &loopback{spec: loopSpecs[name], seed: seed, scale: scale, trace: trace, params: energy.Params11Mbps()}
}

func (l *loopback) cycle() int {
	if l.spec.cold {
		return missCycle
	}
	return 1
}

func (l *loopback) virtualClock() bool { return false }

// splitmix spreads (seed, salt) into an independent 64-bit stream seed.
func splitmix(seed, salt uint64) uint64 {
	z := seed ^ (salt+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (l *loopback) setup() error {
	for i, f := range l.spec.files {
		size := f.size
		if l.spec.scaleSizes {
			size = max(8<<10, int(float64(size)*l.scale))
		}
		l.contents = append(l.contents, f.gen(size, splitmix(corpusSeed, uint64(i))))
	}
	for fi := range l.spec.files {
		for _, s := range schemes {
			for _, m := range l.spec.modes {
				l.keys = append(l.keys, fetchKey{fi, s, m})
			}
		}
	}

	cfg := proxy.Config{}
	if l.trace != nil {
		cfg.Tracer = l.trace.srv
	}
	l.srv = proxy.NewServerWith(nil, cfg)
	for i, f := range l.spec.files {
		l.srv.Register(f.name, l.contents[i])
	}
	// An abstract socket: host-local like any unix socket, but it leaves
	// no file behind and has no path-length limit to trip over.
	ln, err := net.Listen("unix", fmt.Sprintf("@repro-bench-%d-%d", os.Getpid(), socketSeq.Add(1)))
	if err != nil {
		return err
	}
	l.addr = l.srv.Serve(ln)
	if !l.spec.cold {
		for _, f := range l.spec.files {
			for _, s := range schemes {
				if err := l.srv.Precompress(f.name, s); err != nil {
					return fmt.Errorf("precompress %s/%v: %w", f.name, s, err)
				}
			}
		}
	}

	for c := 0; c < loopClients; c++ {
		lc := &loopClient{cli: proxy.NewClient(l.addr)}
		lc.cli.Rand = rand.New(rand.NewSource(int64(splitmix(l.seed, 100+uint64(c)))))
		lc.cli.Dial = func() (net.Conn, error) {
			conn, err := net.Dial("unix", l.addr)
			if err != nil {
				lc.meter.dialErrors++
				return nil, err
			}
			return &meteredConn{Conn: conn, m: &lc.meter}, nil
		}
		if l.trace != nil {
			lc.tracer = obs.NewTracer(1)
			lc.tracer.SetOnFinish(func(d obs.SpanData) { lc.last = d })
			lc.payload = make(map[int]int64)
		}
		l.clients = append(l.clients, lc)
	}
	l.plan()
	l.setTracing(l.trace != nil)

	// Warm-up: one unmeasured pass fills every cache the measured passes
	// rely on (selective artifacts, buffer pools, the Go heap's size).
	var warm passRec
	if err := l.pass(0, &warm); err != nil {
		return err
	}
	if warm.failed > 0 {
		return fmt.Errorf("warm-up pass: %d fetches failed", warm.failed)
	}
	l.trace.reset()
	l.base = l.srv.Stats()
	return nil
}

// plan fixes what each position of the cycle fetches. What a pass fetches
// never changes; in which order, and on the miss workload by which client,
// is reshuffled for every pass (see orders).
func (l *loopback) plan() {
	if !l.spec.cold {
		reps := max(1, int(float64(l.spec.reps)*l.scale+0.5))
		var all []int
		for r := 0; r < reps; r++ {
			for k := range l.keys {
				all = append(all, k)
			}
		}
		l.phases = [][]int{all}
		return
	}
	// Phase p takes the keys whose file+scheme index is p mod 3: every
	// phase compresses two files per scheme in both modes, so passes cost
	// about the same.
	l.phases = make([][]int, missCycle)
	for k, key := range l.keys {
		p := (key.file + schemeIndex(key.scheme)) % missCycle
		l.phases[p] = append(l.phases[p], k)
	}
}

// orders deals pass i's requests to the clients. A fetch's latency depends
// on what the other client happens to be doing at the time (two cores, and
// a miss fans its blocks out over idle compression workers), so one fixed
// pairing per seed made per-scheme latency differ between seeds by more
// than the machine's noise. Reshuffling every pass lets each run average
// over many pairings. The hit workloads give every client the whole phase;
// the miss workload deals it out in disjoint halves so nothing coalesces.
func (l *loopback) orders(i int) [][]int {
	phase := l.phases[i%l.cycle()]
	shuffled := func(salt uint64) []int {
		order := append([]int(nil), phase...)
		rng := rand.New(rand.NewSource(int64(splitmix(splitmix(l.seed, salt), uint64(i)))))
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		return order
	}
	out := make([][]int, len(l.clients))
	if l.spec.cold {
		for n, k := range shuffled(300) {
			out[n%len(out)] = append(out[n%len(out)], k)
		}
		return out
	}
	for c := range out {
		out[c] = shuffled(200 + uint64(c))
	}
	return out
}

// clientResult is one client's share of a pass.
type clientResult struct {
	failed  int
	exact   exactSums // joules are summed later, in key order
	joules  []keyJoules
	samples []sample
}

// keyJoules is one fetch's modeled energy, tagged with its key so a pass
// can add its joules up in an order that does not depend on the shuffle.
type keyJoules struct {
	key    int
	joules float64
}

func (l *loopback) pass(i int, rec *passRec) error {
	if l.spec.cold {
		// A re-registration bumps the generation, so every key of this
		// pass is cold against a live cache.
		for fi, f := range l.spec.files {
			l.srv.Register(f.name, l.contents[fi])
		}
	}
	orders := l.orders(i)
	results := make([]clientResult, len(l.clients))
	rec.timed(func() {
		var wg sync.WaitGroup
		for c, lc := range l.clients {
			wg.Add(1)
			go func(lc *loopClient, order []int, res *clientResult) {
				defer wg.Done()
				l.runClient(lc, order, i, res)
			}(lc, orders[c], &results[c])
		}
		wg.Wait()
	})
	var joules []keyJoules
	for _, res := range results {
		rec.failed += res.failed
		rec.exact.add(res.exact)
		joules = append(joules, res.joules...)
		rec.samples = append(rec.samples, res.samples...)
	}
	// Every fetch of one key charges the same joules, so sorting by key
	// fixes the floating-point sum whatever order the fetches ran in.
	sort.Slice(joules, func(a, b int) bool { return joules[a].key < joules[b].key })
	for _, kj := range joules {
		rec.exact.joules += kj.joules
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runClient issues one client's request list back to back, checking every
// payload byte for byte.
func (l *loopback) runClient(lc *loopClient, order []int, pass int, res *clientResult) {
	for _, ki := range order {
		key := l.keys[ki]
		name, want := l.spec.files[key.file].name, l.contents[key.file]
		lc.meter.firstByte = time.Time{}
		before := lc.meter
		start := time.Now()
		got, st, err := lc.cli.Fetch(name, key.scheme, key.mode)
		end := time.Now()
		if err != nil || !bytes.Equal(got, want) {
			res.failed++
			continue
		}
		joules := modelJoules(l.params, st.RawBytes, st.WireBytes, st.BlocksCompressed)
		res.exact.add(exactSums{ops: 1, rawBytes: int64(st.RawBytes), wireBytes: int64(st.WireBytes)})
		res.joules = append(res.joules, keyJoules{ki, joules})
		res.samples = append(res.samples, sample{ki, schemeIndex(key.scheme), ms(end.Sub(start)), ms(lc.meter.firstByte.Sub(start))})
		if lc.cli.Tracer != nil {
			l.trace.fetch(pass, ki, start, end, lc.last, joules, l.payloadBytes(lc, ki), before, lc.meter)
		}
	}
}

// artifactKey names key ki's artifact at the file's current generation.
func (l *loopback) artifactKey(ki int) proxy.ArtifactKey {
	key := l.keys[ki]
	name := l.spec.files[key.file].name
	gen, _ := l.srv.Generation(name)
	fp := "always" // precompressed and on-demand share the always-compress artifact
	if key.mode == proxy.ModeSelective {
		fp = l.srv.DeciderFP()
	}
	return proxy.ArtifactKey{Name: name, Gen: gen, Scheme: key.scheme, FP: fp}
}

// payloadBytes is the block-payload size of key ki's artifact, read from
// the cache right after a fetch put or found it there. Compression is
// deterministic, so one look per key serves every later generation.
func (l *loopback) payloadBytes(lc *loopClient, ki int) int64 {
	if n, ok := lc.payload[ki]; ok {
		return n
	}
	blocks, _ := l.srv.CachedArtifact(l.artifactKey(ki))
	var n int64
	for _, b := range blocks {
		n += int64(len(b.Payload))
	}
	lc.payload[ki] = n
	return n
}

func (l *loopback) close() error { return l.srv.Close() }

func (l *loopback) check(ops int) error {
	st := l.srv.Stats()
	hits, comps := st.CacheHits-l.base.CacheHits, st.Compressions-l.base.Compressions
	coalesced := st.Coalesced - l.base.Coalesced
	switch {
	case st.Errors != 0 || st.ConnsRejected != 0:
		return fmt.Errorf("server counted %d errors and %d rejected connections", st.Errors, st.ConnsRejected)
	case l.spec.cold && (comps != int64(ops) || coalesced != 0 || hits != 0):
		return fmt.Errorf("miss workload: %d fetches but %d compressions, %d coalesced, %d cache hits", ops, comps, coalesced, hits)
	case !l.spec.cold && (hits != int64(ops) || comps != 0):
		return fmt.Errorf("hit workload: %d fetches but %d cache hits and %d compressions", ops, hits, comps)
	}
	for c, lc := range l.clients {
		if lc.meter.dialErrors != 0 {
			return fmt.Errorf("client %d: %d dial errors", c, lc.meter.dialErrors)
		}
	}
	return nil
}
