// Package harness is the deterministic soak testbed: it runs the
// unmodified proxy server and N concurrent retrying clients over the
// virtual 802.11b network (internal/simnet), entirely in virtual time,
// from a single seed. One Run executes a seeded scenario schedule —
// clients × fetches across schemes and modes, client-side fault plans
// (internal/proxy/faultconn), cache churn — and then checks a set of
// invariant oracles over everything that happened: byte-exact payloads,
// server/client counter reconciliation, energy-accounting conservation
// against the paper's Eq. 1/Eq. 3 model, monotone resume offsets, and
// zero leaked goroutines.
//
// The same seed produces a byte-identical canonical trace (Report.Trace),
// which is what the CI soak gate diffs and what `energysim soak -scenario
// FILE -seed N -trace` replays. The trace deliberately excludes
// wall/virtual timestamps and scheduling-dependent counters (cache hits,
// coalesced flights): those vary with goroutine interleaving even though
// every client's wire behavior — attempt counts, fault draws, resume
// offsets, byte counts — is fully determined by the seed.
package harness

import (
	"hash/crc32"
	"hash/fnv"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/decider"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/proxy/faultconn"
	"repro/internal/selective"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Scenario is one seeded soak configuration. The zero value of any field
// selects the default noted on it. Scenarios are built two ways: literally
// in Go (the tests) or compiled from an on-disk declarative spec by
// internal/scenario — CI's soak shape is testdata/scenarios/default.scn.
type Scenario struct {
	// Name labels the scenario in the canonical trace header; empty reads
	// as "default". Spec-driven scenarios carry their spec name so golden
	// traces from different specs can never be confused.
	Name string
	// Seed determines everything: corpus content, per-client schedules,
	// fault plans, link jitter, backoff jitter and request IDs.
	Seed int64
	// Clients is the number of concurrent handheld clients (default 10).
	Clients int
	// FetchesPerClient is each client's schedule length (default 50).
	FetchesPerClient int
	// FaultRate is the per-I/O-call probability of each of the four
	// client-side fault modes (fragment, reset, truncate, bit-flip).
	// Zero injects no faults.
	FaultRate float64
	// Link models the shared 802.11b medium; the zero value selects the
	// paper's 11 Mb/s WaveLAN effective rate with 2 ms hop latency and
	// 10% transmit jitter. Each dial derives its own jitter seed.
	Link simnet.Link
	// Churn is how many times the churn actor re-registers a (randomly
	// chosen) corpus file mid-run, bumping its generation and dropping
	// its cached artifacts without changing its bytes (default 0).
	Churn int
	// MaxRetries is each client's retry budget per fetch (default 30).
	MaxRetries int
	// Timeout is the per-attempt connection deadline in virtual time
	// (default 2 minutes — far beyond any healthy transfer).
	Timeout time.Duration
	// Decider selects the server's selective-mode decision policy: "" or
	// "static" keeps the paper's Equation 6; "dynamic" installs
	// internal/decider's queue-aware policy with its link state pinned to
	// the scenario's base rate and its queue depth pinned to zero — live
	// hooks would couple block decisions to goroutine interleaving and
	// break the canonical-trace replay guarantee.
	Decider string
	// DeadlineClass and BudgetJ are the request attributes every client
	// declares (decider.ClassFromByte vocabulary; joules). Zero values
	// keep clients on the plain GET op, byte-identical to older traces.
	DeadlineClass uint8
	BudgetJ       float64
	// Corpus, when non-empty, replaces the built-in nine-file corpus:
	// each entry is generated from the scenario seed by content class or,
	// when Ratio is set, by the compressibility knob. Entries must have
	// unique names.
	Corpus []CorpusEntry
	// Schedule, when non-empty, scripts the shared medium over virtual
	// time — rate cliffs and power-save pauses — via simnet.SetSchedule.
	// It reshapes timing only: wire behavior (and so the canonical trace)
	// stays pinned by the seed.
	Schedule []simnet.Phase
	// Nodes, when positive, runs the scenario against an N-node
	// consistent-hash proxy cluster instead of the single server: each
	// node fronts its own proxy with a shared transmit line at the client
	// link rate, clients pin to node (client mod Nodes), and cache misses
	// for keys owned elsewhere fetch the finished artifact from the owner
	// over PXY-P instead of recompressing. Zero keeps the original
	// single-server testbed (and its golden traces) untouched.
	Nodes int
	// Replicas is how many ring successors each hot key's artifact is
	// pushed to (cluster runs only; default 0 = no replication).
	Replicas int
	// HotK sizes each node's top-K hot-key admission sketch (cluster runs
	// only; default 0 = no admission or replication).
	HotK int
	// PeerLink models the inter-node backhaul (cluster runs only); the
	// zero value selects a 100 Mb/s wired link with 200 µs latency and no
	// jitter — fast enough that peer fetches beat recompression, slow
	// enough that they are not free.
	PeerLink simnet.Link
	// Bounds are the expected outcomes Run holds the run to alongside the
	// structural oracles (a spec's expect lines); the zero value checks none.
	Bounds Bounds
}

// CorpusEntry is one generated workload file of a custom scenario corpus.
// Exactly one of Class / Ratio describes its content: a Table 3 content
// class, or a target gzip compression factor for the synthetic knob
// (workload.GenerateRatio).
type CorpusEntry struct {
	Name  string
	Class workload.Class
	Ratio float64
	Size  int
}

func (s Scenario) withDefaults() Scenario {
	if s.Clients <= 0 {
		s.Clients = 10
	}
	if s.FetchesPerClient <= 0 {
		s.FetchesPerClient = 50
	}
	if s.Link == (simnet.Link{}) {
		s.Link = simnet.WaveLAN11()
		s.Link.JitterFrac = 0.10
	}
	if s.MaxRetries <= 0 {
		s.MaxRetries = 30
	}
	if s.Timeout <= 0 {
		s.Timeout = 2 * time.Minute
	}
	if s.Nodes > 0 && s.PeerLink == (simnet.Link{}) {
		s.PeerLink = simnet.Link{BytesPerSec: 12_500_000, Latency: 200 * time.Microsecond}
	}
	return s
}

// rate is the 802.11b rate row the scenario's link runs at: the row whose
// effective rate the link's equals, else the 11 Mb/s row. The clients are
// charged at it, the energy oracle holds them to it and the events carry
// it.
func (s Scenario) rate() energy.RateConfig {
	for _, r := range energy.Rates() {
		if r.BytesPerSec() == s.Link.BytesPerSec {
			return r
		}
	}
	return energy.Rate11Mbps()
}

// corpusFile is one generated workload file served by the scenario.
type corpusFile struct {
	name    string
	class   workload.Class
	size    int
	content []byte
	crc     uint32
}

// defaultCorpus pins the built-in corpus shape: a sub-threshold file
// (< 3900 B, which selective mode must send raw), text/markup/source/
// binary/random classes spanning Table 2's compressibility bands, and a
// multi-block file (> 128 kB, so resume offsets land on interior block
// boundaries).
var defaultCorpus = []CorpusEntry{
	{Name: "tiny.txt", Class: workload.ClassMail, Size: 2_000},
	{Name: "small.xml", Class: workload.ClassXML, Size: 6_000},
	{Name: "mail.txt", Class: workload.ClassMail, Size: 20_000},
	{Name: "page.html", Class: workload.ClassHTML, Size: 40_000},
	{Name: "noise.dat", Class: workload.ClassRandom, Size: 50_000},
	{Name: "src.c", Class: workload.ClassSource, Size: 64_000},
	{Name: "app.bin", Class: workload.ClassBinary, Size: 72_000},
	{Name: "access.log", Class: workload.ClassWebLog, Size: 96_000},
	{Name: "site.tar", Class: workload.ClassTarHTML, Size: 200_000},
}

// buildCorpus generates the scenario's file set from its seed: the custom
// entries when the scenario carries any, the built-in set otherwise.
func buildCorpus(s Scenario) []corpusFile {
	entries := s.Corpus
	if len(entries) == 0 {
		entries = defaultCorpus
	}
	// The knob calibrates against the dataplane's own gzip (level 6),
	// which is deterministic across Go versions — stdlib gzip is not, and
	// a calibration shift would silently move every golden trace.
	gz := codec.MustNew(codec.Gzip, 6)
	measure := func(data []byte) float64 {
		comp, err := gz.Compress(data)
		if err != nil {
			return 1.0 // cannot happen on generated input; read as incompressible
		}
		return codec.Factor(len(data), len(comp))
	}
	out := make([]corpusFile, len(entries))
	for i, sp := range entries {
		gseed := uint64(mix(s.Seed, int64(100+i)))
		var content []byte
		if sp.Ratio > 0 {
			content = workload.GenerateRatio(sp.Size, sp.Ratio, gseed, measure)
		} else {
			content = workload.Generate(sp.Class, sp.Size, gseed)
		}
		out[i] = corpusFile{name: sp.Name, class: sp.Class, size: sp.Size,
			content: content, crc: crc32.ChecksumIEEE(content)}
	}
	return out
}

// corpusDigest folds the corpus shape into the trace header, so traces of
// scenarios that differ only in workload cannot be mistaken for each other.
// It hashes each entry as "name/class/ratio/size;", ratio in %g.
func corpusDigest(entries []CorpusEntry) uint32 {
	if len(entries) == 0 {
		entries = defaultCorpus
	}
	h := fnv.New32a()
	var b [128]byte
	for _, e := range entries {
		p := append(b[:0], e.Name...)
		p = append(p, '/')
		p = strconv.AppendInt(p, int64(e.Class), 10)
		p = append(p, '/')
		p = strconv.AppendFloat(p, e.Ratio, 'g', -1, 64)
		p = append(p, '/')
		p = strconv.AppendInt(p, int64(e.Size), 10)
		h.Write(append(p, ';'))
	}
	return h.Sum32()
}

// FetchRecord is one fetch's deterministic outcome.
type FetchRecord struct {
	Client, Index int
	Name          string
	Scheme        codec.Scheme
	Mode          proxy.Mode
	// Err is "" on success, otherwise a stable error class
	// (busy/notfound/protocol/err) — never a raw error string, so the
	// trace stays byte-stable across Go versions.
	Err   string
	Raw   int
	CRC   uint32
	Stats proxy.FetchStats
	// Virtual is the fetch's duration on the virtual clock, backoff
	// included — the latency the soak's fleet report aggregates into
	// percentiles. Like all timing it is excluded from the canonical
	// trace.
	Virtual time.Duration
	// VStart is the fetch's start offset on the virtual clock — the
	// ordering key of the canonical wide-event stream (Report.Events).
	// Virtual timestamps are seed-deterministic (CPU work costs the
	// ledger zero virtual time), unlike anything wall-clock.
	VStart time.Duration
}

// Report is everything one Run produced: the per-fetch records in
// client-major order, the server counter snapshot, each client's span
// ring, and any oracle violations.
type Report struct {
	Scenario Scenario
	Records  []FetchRecord
	// Stats is the server counter snapshot; on a cluster run it is the
	// per-field sum over PerNode, so every single-server identity that
	// distributes over addition keeps holding.
	Stats proxy.Stats
	// PerNode holds each cluster node's own counter snapshot, indexed by
	// node ordinal (nil on single-server runs).
	PerNode []proxy.Stats
	// Spans holds each client's fetch spans, oldest first; span k of
	// client i is fetch k (the tracer ring is sized to hold them all).
	Spans [][]obs.SpanData
	// Dials counts each client's connections.
	Dials []int64
	// Elapsed is the virtual time the client schedules took, up to the
	// latest deadline they queued, a cancelled one included. It is
	// informational and excluded from the canonical trace.
	Elapsed    time.Duration
	Violations []string
	// first[i] is where client i's records start in Records, with one
	// closing entry: addClient keeps it as it concatenates.
	first []int
}

// addClient appends the next client's records and spans to the report.
func (r *Report) addClient(recs []FetchRecord, spans []obs.SpanData) {
	if len(r.first) == 0 {
		r.first = append(r.first, 0)
	}
	r.Records = append(r.Records, recs...)
	r.Spans = append(r.Spans, spans)
	r.first = append(r.first, len(r.Records))
}

// OK reports whether every oracle passed.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// ClientMakespan is the virtual time between the first fetch starting and
// the last fetch finishing — the denominator for aggregate-throughput
// comparisons. Unlike Elapsed it excludes the post-run tail where parked
// server read deadlines drain off the virtual clock.
func (r *Report) ClientMakespan() time.Duration {
	var lo, hi time.Duration
	lo = 1 << 62
	for _, rec := range r.Records {
		if rec.VStart < lo {
			lo = rec.VStart
		}
		if end := rec.VStart + rec.Virtual; end > hi {
			hi = end
		}
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Trace renders the canonical scenario trace: one header line, then one
// line per fetch in client-major order. Two runs of the same scenario
// must produce byte-identical traces; anything scheduling-dependent
// (timestamps, cache hit/miss split, joule floats) is deliberately absent.
//
// Each line is formatted on the stack, once to size the trace and once to
// write it, so the trace is one allocation however many fetches it holds.
func (r *Report) Trace() string {
	var head, line [256]byte
	h := r.appendHeader(head[:0])
	n := len(h)
	for i := range r.Records {
		n += len(appendRecord(line[:0], &r.Records[i]))
	}
	var b strings.Builder
	b.Grow(n)
	b.Write(h)
	for i := range r.Records {
		b.Write(appendRecord(line[:0], &r.Records[i]))
	}
	return b.String()
}

// appendHeader appends the trace's header line to b: in fmt's terms,
// "soak name=%s seed=%d clients=%d fetches=%d fault=%.4f link=%.0fBps
// lat=%s jitter=%.2f churn=%d corpus=%08x sched=%d", then the cluster and
// decider suffixes when the scenario sets them.
func (r *Report) appendHeader(b []byte) []byte {
	s := r.Scenario
	name := s.Name
	if name == "" {
		name = "default"
	}
	b = append(append(b, "soak name="...), name...)
	b = strconv.AppendInt(append(b, " seed="...), s.Seed, 10)
	b = strconv.AppendInt(append(b, " clients="...), int64(s.Clients), 10)
	b = strconv.AppendInt(append(b, " fetches="...), int64(s.FetchesPerClient), 10)
	b = strconv.AppendFloat(append(b, " fault="...), s.FaultRate, 'f', 4, 64)
	b = strconv.AppendFloat(append(b, " link="...), s.Link.BytesPerSec, 'f', 0, 64)
	b = append(append(append(b, "Bps lat="...), s.Link.Latency.String()...), " jitter="...)
	b = strconv.AppendFloat(b, s.Link.JitterFrac, 'f', 2, 64)
	b = strconv.AppendInt(append(b, " churn="...), int64(s.Churn), 10)
	b = appendZeroPad(append(b, " corpus="...), uint64(corpusDigest(s.Corpus)), 16, 8)
	b = strconv.AppendInt(append(b, " sched="...), int64(len(s.Schedule)), 10)
	if s.Nodes > 0 {
		// The cluster suffix appears only on cluster traces, so every
		// pre-cluster golden stays byte-identical.
		b = strconv.AppendInt(append(b, " nodes="...), int64(s.Nodes), 10)
		b = strconv.AppendInt(append(b, " replicas="...), int64(s.Replicas), 10)
		b = strconv.AppendInt(append(b, " hotk="...), int64(s.HotK), 10)
		b = strconv.AppendFloat(append(b, " peerlink="...), s.PeerLink.BytesPerSec, 'f', 0, 64)
		b = append(b, "Bps"...)
	}
	if s.Decider != "" || s.DeadlineClass != 0 || s.BudgetJ != 0 {
		// Same rule as the cluster suffix: the decider fields appear only
		// when a scenario sets them, so pre-decider goldens never shift.
		dec := s.Decider
		if dec == "" {
			dec = "static"
		}
		b = append(append(b, " decider="...), dec...)
		b = strconv.AppendInt(append(b, " class="...), int64(s.DeadlineClass), 10)
		b = strconv.AppendFloat(append(b, " budget="...), s.BudgetJ, 'g', -1, 64)
	}
	return append(b, '\n')
}

// appendRecord appends rec's trace line to b: in fmt's terms, "c%02d f%03d
// %s %s %s %s raw=%d crc=%08x attempts=%d resumed=%d wire=%d
// blocks=%d/%d" with the status "ok" for a fetch that succeeded.
func appendRecord(b []byte, rec *FetchRecord) []byte {
	status := rec.Err
	if status == "" {
		status = "ok"
	}
	st := &rec.Stats
	b = appendZeroPad(append(b, 'c'), uint64(rec.Client), 10, 2)
	b = appendZeroPad(append(b, " f"...), uint64(rec.Index), 10, 3)
	b = append(append(b, ' '), rec.Name...)
	b = append(append(b, ' '), rec.Scheme.String()...)
	b = append(append(b, ' '), rec.Mode.String()...)
	b = append(append(b, ' '), status...)
	b = strconv.AppendInt(append(b, " raw="...), int64(rec.Raw), 10)
	b = appendZeroPad(append(b, " crc="...), uint64(rec.CRC), 16, 8)
	b = strconv.AppendInt(append(b, " attempts="...), int64(st.Attempts), 10)
	b = strconv.AppendInt(append(b, " resumed="...), int64(st.ResumedBytes), 10)
	b = strconv.AppendInt(append(b, " wire="...), int64(st.WireBytes), 10)
	b = strconv.AppendInt(append(b, " blocks="...), int64(st.BlocksCompressed), 10)
	b = strconv.AppendInt(append(b, '/'), int64(st.BlocksTotal), 10)
	return append(b, '\n')
}

// appendZeroPad appends v in base with at least width digits, padded with
// leading zeros, as fmt's %0*d and %0*x print a value that is not negative.
func appendZeroPad(b []byte, v uint64, base, width int) []byte {
	var num [20]byte
	d := strconv.AppendUint(num[:0], v, base)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// mix is workload.Splitmix on the run's signed seeds.
func mix(seed, salt int64) int64 { return int64(workload.Splitmix(uint64(seed), uint64(salt))) }

var schemes = []codec.Scheme{codec.Gzip, codec.Compress, codec.Bzip2}
var modes = []proxy.Mode{proxy.ModeRaw, proxy.ModePrecompressed, proxy.ModeOnDemand, proxy.ModeSelective}

// buildDecider constructs the scenario's selective-mode policy: nil for
// the static default (NewServerWith falls back to the paper's Eq. 6), or
// a dynamic decider with both live hooks pinned — the link to the
// scenario's base rate, the queue to zero — so every block decision is a
// pure function of block sizes and the trace replay guarantee holds.
func buildDecider(s Scenario) selective.Decider {
	if s.Decider != "dynamic" {
		return nil
	}
	return decider.New(decider.Config{
		Link:  func() (float64, bool) { return s.Link.BytesPerSec / 1e6, false },
		Queue: func() int { return 0 },
	})
}

// Run executes the scenario and checks every oracle. The returned error
// covers harness plumbing failures only; oracle violations land in
// Report.Violations so a caller can print them alongside the trace.
//
// Every shape shares this one loop: startServers stands up one server or
// Scenario.Nodes ring members, then the same clients, churn actor and
// report assembly run against them. Client i's schedule, fault plan and
// jitter seeds derive from (seed, i) alone, whatever the server count.
func Run(s Scenario) (*Report, error) {
	clock := lastClock.take()
	r, err := run(s, clock)
	if err == nil {
		lastClock.put(clock)
	}
	return r, err
}

// lastClock holds the clock of the Run that finished last, for the next
// Run to start with the free lists that one filled. Passes run one after
// another, so one slot suffices; a sync.Pool would lose it to each of the
// one or two collections a pass runs.
var lastClock clockSlot

type clockSlot struct {
	mu    sync.Mutex
	clock *simnet.Clock
}

// take returns the kept clock reset to time zero, or a new one when none
// is kept or the kept one is still in use.
func (s *clockSlot) take() *simnet.Clock {
	s.mu.Lock()
	c := s.clock
	s.clock = nil
	s.mu.Unlock()
	if c == nil || c.Reset() != nil {
		c = simnet.NewClock()
	}
	return c
}

// put keeps c, whose run is over, for the next take.
func (s *clockSlot) put(c *simnet.Clock) {
	s.mu.Lock()
	s.clock = c
	s.mu.Unlock()
}

// run is Run on a given clock, which a test reads back afterwards.
func run(s Scenario, clock *simnet.Clock) (*Report, error) {
	s = s.withDefaults()
	goroutinesBefore := runtime.NumGoroutine()

	corpus := buildCorpus(s)
	nw := simnet.NewNetwork(clock, s.Link)
	if len(s.Schedule) > 0 {
		if err := nw.SetSchedule(s.Schedule); err != nil {
			return nil, err
		}
	}
	servers, nodes, compLog, err := startServers(s, clock, nw, corpus)
	if err != nil {
		return nil, err
	}

	p := &pass{s: s, clock: clock, nw: nw, corpus: corpus, rate: s.rate(),
		addrs: make([]string, len(servers)), dials: make([]int64, s.Clients)}
	for k := range p.addrs {
		p.addrs[k] = nodeAddr(k) // clients pin to server (client mod servers)
	}
	// Hold the clock at time zero until every actor is on its ledger or
	// queued to start: client 0, which starts at once, must not spend
	// virtual time before its siblings' starts are in the queue.
	launched := make(chan struct{})
	clock.Go(func() { <-launched })

	// Every handheld's state comes out of a few slabs, one allocation each
	// per pass however many handhelds it runs: the handhelds themselves
	// (client, generator, tracer), their records, and their span rings.
	n, per := s.Clients, s.FetchesPerClient
	hands := make([]handheld, n)
	records := make([]FetchRecord, n*per)
	rings := make([]*obs.Span, n*(per+1))
	for i := range hands {
		h := &hands[i]
		h.p, h.i = p, i
		h.records = records[i*per : i*per : (i+1)*per]
		h.tracer.Init(rings[i*(per+1) : (i+1)*(per+1)])
		p.running.Add(1)
		// Stagger starts so the schedule is not one synchronized burst:
		// client i starts i ms in, and until then it is an event in the
		// clock's queue rather than a goroutine.
		clock.GoAfter(time.Duration(i)*time.Millisecond, h)
	}

	if s.Churn > 0 {
		p.running.Add(1)
		clock.Go(func() {
			defer p.running.Done()
			rng := sim.NewRand(mix(s.Seed, 4000))
			for k := 0; k < s.Churn; k++ {
				clock.Sleep(time.Duration(20+rng.Intn(20)) * time.Millisecond)
				f := corpus[rng.Intn(len(corpus))]
				// Same bytes, new generation: drops cached artifacts so the
				// dataplane re-compresses, without perturbing any payload
				// oracle or resume offset. On a ring the bump goes through a
				// node: it must broadcast ring-wide invalidations.
				if len(nodes) > 0 {
					nodes[rng.Intn(len(nodes))].Register(f.name, f.content)
				} else {
					servers[0].Register(f.name, f.content)
				}
			}
		})
	}

	close(launched)
	p.running.Wait()
	// The last client's exit and the server handlers it hangs up on run
	// the clock on after it is done: read the time once they have.
	clock.WaitIdle()
	elapsed := clock.Elapsed()
	// Nodes first (their peer handlers use the servers), then the servers.
	for _, n := range nodes {
		if err := n.Close(); err != nil {
			return nil, err
		}
	}
	for _, srv := range servers {
		if err := srv.Close(); err != nil {
			return nil, err
		}
	}

	r := &Report{Scenario: s, Elapsed: elapsed, Dials: p.dials,
		Records: make([]FetchRecord, 0, s.Clients*s.FetchesPerClient)}
	if s.Nodes == 0 {
		r.Stats = servers[0].Stats()
	} else {
		for _, srv := range servers {
			st := srv.Stats()
			r.PerNode = append(r.PerNode, st)
			r.Stats = r.Stats.Add(st)
		}
	}
	// The spans of every client are read into one slice, each client's
	// clipped so that appending to it cannot reach the next client's.
	spans := make([]obs.SpanData, 0, n*per)
	for i := range hands {
		h := &hands[i]
		from := len(spans)
		spans = h.tracer.AppendSnapshot(spans)
		r.addClient(h.records, slices.Clip(spans[from:]))
	}
	r.runOracles(corpus, goroutinesBefore)
	if s.Nodes > 0 {
		r.checkClusterCompressions(compLog)
	}
	r.Violations = append(r.Violations, r.checkBounds(s.Bounds)...)
	return r, nil
}

// pass is what every handheld of one run shares.
type pass struct {
	s       Scenario
	clock   *simnet.Clock
	nw      *simnet.Network
	corpus  []corpusFile
	rate    energy.RateConfig
	addrs   []string
	dials   []int64 // per client; the report's Dials
	running sync.WaitGroup
}

// handheld is one simulated client of a pass: its proxy client, the
// generator behind the client's Rand, its tracer, and its records, which
// point into the pass's records slab.
type handheld struct {
	p       *pass
	i       int
	cli     proxy.Client
	rng     sim.RandSlot
	tracer  obs.Tracer
	records []FetchRecord
}

// Start is the handheld's life: its schedule of fetches, one after
// another, each recorded. It makes a *handheld the simnet.Starter its
// pass queues.
func (h *handheld) Start() {
	p, s, i := h.p, h.p.s, h.i
	defer p.running.Done()
	sched := sim.NewStream(mix(s.Seed, int64(1000+i)))
	// A zero Client dials only through Dial.
	cli := &h.cli
	cli.Clock = p.clock
	cli.Timeout = s.Timeout
	cli.MaxRetries = s.MaxRetries
	cli.RetryBaseDelay = 10 * time.Millisecond
	cli.RetryMaxDelay = 200 * time.Millisecond
	cli.Rand = h.rng.Seed(mix(s.Seed, int64(2000+i)))
	cli.Rate = p.rate
	cli.Tracer = &h.tracer
	cli.DeadlineClass = s.DeadlineClass
	cli.EnergyBudgetJ = s.BudgetJ
	cli.Dial = h.dial
	// Hang up once the last fetch is in, so that the server's handler does
	// not wait out its idle timeout on the connection.
	defer cli.Close()

	for j := 0; j < s.FetchesPerClient; j++ {
		if j > 0 {
			p.clock.Sleep(time.Duration(sched.Intn(20)) * time.Millisecond)
		}
		f := p.corpus[sched.Intn(len(p.corpus))]
		scheme := schemes[sched.Intn(len(schemes))]
		mode := modes[sched.Intn(len(modes))]
		fetchStart := p.clock.Elapsed()
		got, stats, err := cli.Fetch(f.name, scheme, mode)
		rec := FetchRecord{Client: i, Index: j, Name: f.name,
			Scheme: scheme, Mode: mode, Err: proxy.ErrorClass(err), Stats: stats,
			Virtual: p.clock.Elapsed() - fetchStart, VStart: fetchStart}
		if err == nil {
			rec.Raw = len(got)
			rec.CRC = crc32.ChecksumIEEE(got)
		}
		h.records = append(h.records, rec)
	}
}

// dial is the handheld's client's Dial. Each dial gets its own jitter seed
// (via DialLink) and its own fault stream (via the plan's per-id rng),
// both derived from (scenario seed, client, dial ordinal) — so a client's
// wire behavior replays exactly regardless of how the other clients
// interleave with it. The client keeps its connection from one fetch to
// the next, so it dials again only after a failed attempt, or when the
// server closed the kept connection.
func (h *handheld) dial() (net.Conn, error) {
	p, s, i := h.p, h.p.s, h.i
	p.dials[i]++
	link := s.Link
	link.Seed = mix(s.Seed, int64(i)*1_000_000+p.dials[i])
	addr := p.addrs[i%len(p.addrs)]
	conn, err := p.nw.DialLink(addr, link)
	if err != nil {
		return nil, err
	}
	plan := faultconn.Plan{
		Seed:         mix(s.Seed, int64(3000+i)),
		FragmentProb: s.FaultRate,
		ResetProb:    s.FaultRate,
		TruncateProb: s.FaultRate,
		BitFlipProb:  s.FaultRate,
	}
	return plan.Wrap(conn, p.dials[i]), nil
}
