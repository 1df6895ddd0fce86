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
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/decider"
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
func corpusDigest(entries []CorpusEntry) uint32 {
	if len(entries) == 0 {
		entries = defaultCorpus
	}
	h := fnv.New32a()
	for _, e := range entries {
		fmt.Fprintf(h, "%s/%d/%g/%d;", e.Name, e.Class, e.Ratio, e.Size)
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
	// Elapsed is the virtual time the client schedules took. It is
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
func (r *Report) Trace() string {
	var b strings.Builder
	s := r.Scenario
	name := s.Name
	if name == "" {
		name = "default"
	}
	fmt.Fprintf(&b, "soak name=%s seed=%d clients=%d fetches=%d fault=%.4f link=%.0fBps lat=%s jitter=%.2f churn=%d corpus=%08x sched=%d",
		name, s.Seed, s.Clients, s.FetchesPerClient, s.FaultRate,
		s.Link.BytesPerSec, s.Link.Latency, s.Link.JitterFrac, s.Churn,
		corpusDigest(s.Corpus), len(s.Schedule))
	if s.Nodes > 0 {
		// The cluster suffix appears only on cluster traces, so every
		// pre-cluster golden stays byte-identical.
		fmt.Fprintf(&b, " nodes=%d replicas=%d hotk=%d peerlink=%.0fBps",
			s.Nodes, s.Replicas, s.HotK, s.PeerLink.BytesPerSec)
	}
	if s.Decider != "" || s.DeadlineClass != 0 || s.BudgetJ != 0 {
		// Same rule as the cluster suffix: the decider fields appear only
		// when a scenario sets them, so pre-decider goldens never shift.
		dec := s.Decider
		if dec == "" {
			dec = "static"
		}
		fmt.Fprintf(&b, " decider=%s class=%d budget=%g", dec, s.DeadlineClass, s.BudgetJ)
	}
	b.WriteByte('\n')
	for _, rec := range r.Records {
		status := rec.Err
		if status == "" {
			status = "ok"
		}
		fmt.Fprintf(&b, "c%02d f%03d %s %s %s %s raw=%d crc=%08x attempts=%d resumed=%d wire=%d blocks=%d/%d\n",
			rec.Client, rec.Index, rec.Name, rec.Scheme, rec.Mode, status,
			rec.Raw, rec.CRC, rec.Stats.Attempts, rec.Stats.ResumedBytes,
			rec.Stats.WireBytes, rec.Stats.BlocksCompressed, rec.Stats.BlocksTotal)
	}
	return b.String()
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
	s = s.withDefaults()
	goroutinesBefore := runtime.NumGoroutine()

	corpus := buildCorpus(s)
	clock := simnet.NewClock()
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

	addrs := make([]string, len(servers)) // clients pin to server (client mod servers)
	for k := range addrs {
		addrs[k] = nodeAddr(k)
	}
	records := make([][]FetchRecord, s.Clients)
	tracers := make([]*obs.Tracer, s.Clients)
	var running sync.WaitGroup
	// Hold the clock until every actor is on its ledger: a client the host
	// schedules early must not spend virtual time before its siblings exist.
	launched := make(chan struct{})
	clock.Go(func() { <-launched })

	for i := 0; i < s.Clients; i++ {
		i := i
		tracers[i] = obs.NewTracer(s.FetchesPerClient + 1)
		records[i] = make([]FetchRecord, 0, s.FetchesPerClient)
		running.Add(1)
		clock.Go(func() {
			defer running.Done()
			sched := sim.NewRand(mix(s.Seed, int64(1000+i)))
			plan := faultconn.Plan{
				Seed:         mix(s.Seed, int64(3000+i)),
				FragmentProb: s.FaultRate,
				ResetProb:    s.FaultRate,
				TruncateProb: s.FaultRate,
				BitFlipProb:  s.FaultRate,
			}
			addr := addrs[i%len(addrs)]
			var dials int64
			cli := proxy.NewClient(addr)
			cli.Clock = clock
			cli.Timeout = s.Timeout
			cli.MaxRetries = s.MaxRetries
			cli.RetryBaseDelay = 10 * time.Millisecond
			cli.RetryMaxDelay = 200 * time.Millisecond
			cli.Rand = sim.NewRand(mix(s.Seed, int64(2000+i)))
			cli.Tracer = tracers[i]
			cli.DeadlineClass = s.DeadlineClass
			cli.EnergyBudgetJ = s.BudgetJ
			// Each dial gets its own jitter seed (via DialLink) and its own
			// fault stream (via plan.Wrap's per-id rng), both derived from
			// (scenario seed, client, dial ordinal) — so a client's wire
			// behavior replays exactly regardless of how the other clients
			// interleave with it.
			cli.Dial = func() (net.Conn, error) {
				dials++
				link := s.Link
				link.Seed = mix(s.Seed, int64(i)*1_000_000+dials)
				conn, err := nw.DialLink(addr, link)
				if err != nil {
					return nil, err
				}
				return plan.Wrap(conn, dials), nil
			}

			// Stagger starts so the schedule is not one synchronized burst.
			clock.Sleep(time.Duration(i) * time.Millisecond)
			for j := 0; j < s.FetchesPerClient; j++ {
				f := corpus[sched.Intn(len(corpus))]
				scheme := schemes[sched.Intn(len(schemes))]
				mode := modes[sched.Intn(len(modes))]
				fetchStart := clock.Elapsed()
				got, stats, err := cli.Fetch(f.name, scheme, mode)
				rec := FetchRecord{Client: i, Index: j, Name: f.name,
					Scheme: scheme, Mode: mode, Err: proxy.ErrorClass(err), Stats: stats,
					Virtual: clock.Elapsed() - fetchStart, VStart: fetchStart}
				if err == nil {
					rec.Raw = len(got)
					rec.CRC = crc32.ChecksumIEEE(got)
				}
				records[i] = append(records[i], rec)
				clock.Sleep(time.Duration(sched.Intn(20)) * time.Millisecond)
			}
		})
	}

	if s.Churn > 0 {
		running.Add(1)
		clock.Go(func() {
			defer running.Done()
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
	running.Wait()
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

	r := &Report{Scenario: s, Elapsed: elapsed,
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
	for i := 0; i < s.Clients; i++ {
		r.addClient(records[i], tracers[i].Snapshot())
	}
	r.runOracles(corpus, goroutinesBefore)
	if s.Nodes > 0 {
		r.checkClusterCompressions(compLog)
	}
	r.Violations = append(r.Violations, r.checkBounds(s.Bounds)...)
	return r, nil
}
