package proxy

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
)

// numLatencyBounds is len(latencyBounds); the histogram carries one extra
// overflow bucket.
const numLatencyBounds = 11

// latencyBounds are the upper edges of the per-request latency
// histogram buckets; durations past the last bound land in the overflow
// bucket.
var latencyBounds = [numLatencyBounds]time.Duration{
	1 * time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
}

// latencyBoundsSeconds is the same edge set in the seconds unit the
// registry histogram uses.
func latencyBoundsSeconds() []float64 {
	out := make([]float64, len(latencyBounds))
	for i, b := range latencyBounds {
		out[i] = b.Seconds()
	}
	return out
}

// metrics is the server's hot-path instrumentation, now backed by the
// obs.Registry so the same instruments that feed Server.Stats (and the
// SIGUSR1 report) also feed the admin plane's /metrics and /statsz — one
// source of truth. Every instrument is an atomic; the serve path never
// takes a lock to count.
type metrics struct {
	requests     *obs.Counter
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	coalesced    *obs.Counter
	compressions *obs.Counter
	probedRaw    *obs.Counter
	reused       *obs.Counter
	evictions    *obs.Counter
	cacheRejects *obs.Counter

	bytesRaw        *obs.Counter
	bytesCompressed *obs.Counter

	// Cluster-plane counters: peer artifact fetches the miss path ran
	// instead of compressing locally, and how the ring routed cacheable
	// requests (owner = this node owns the key, remote = a peer does).
	peerFetches     *obs.Counter
	peerFetchErrors *obs.Counter
	ringOwnerHits   *obs.Counter
	ringRemoteHits  *obs.Counter

	connsTotal    *obs.Counter
	connsActive   *obs.Gauge
	connsRejected *obs.Counter
	errors        *obs.Counter

	cacheEntries *obs.Gauge
	cacheBytes   *obs.Gauge
	// compressQueueDepth counts requests currently queued for or holding a
	// compression worker slot — the backlog signal the dynamic decider
	// prices server-side waiting with.
	compressQueueDepth *obs.Gauge

	latency *obs.Histogram

	// Compression-plane instruments: per-scheme input volume (the registry
	// carries no labels, so each scheme gets a suffixed counter) and the
	// server-side compress throughput distribution.
	compressInput [len(compressSchemes)]*obs.Counter
	compressRate  *obs.Histogram
}

// compressSchemes are the schemes the compression-plane counters cover, in
// a fixed order shared by metrics registration and Stats.
var compressSchemes = [4]codec.Scheme{codec.Gzip, codec.Compress, codec.Bzip2, codec.Zlib}

// newMetrics registers the server's instrument set on reg. Metric names
// are part of the admin-plane contract documented in README "Observability".
func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		requests:     reg.Counter("proxy_requests_total", "Requests parsed off accepted connections."),
		cacheHits:    reg.Counter("proxy_cache_hits_total", "Requests served from the artifact cache."),
		cacheMisses:  reg.Counter("proxy_cache_misses_total", "Requests that missed the artifact cache."),
		coalesced:    reg.Counter("proxy_coalesced_total", "Misses that joined an identical in-flight compression."),
		compressions: reg.Counter("proxy_compressions_total", "Artifact builds led by a local cache miss or Precompress."),
		probedRaw:    reg.Counter("server_blocks_probed_raw_total", "Selective blocks sent raw on the probe's bound, no codec run."),
		reused:       reg.Counter("server_blocks_reused_total", "Blocks a build took compressed from a local sibling artifact, no codec run."),
		evictions:    reg.Counter("proxy_cache_evictions_total", "Artifacts evicted by the LRU byte budget."),
		cacheRejects: reg.Counter("proxy_cache_rejects_total", "Artifacts larger than the whole cache budget."),

		bytesRaw:        reg.Counter("proxy_bytes_served_raw_total", "Raw block payload bytes written to the wire."),
		bytesCompressed: reg.Counter("proxy_bytes_served_compressed_total", "Compressed block payload bytes written to the wire."),

		peerFetches:     reg.Counter("proxy_peer_fetches_total", "Cache misses satisfied by fetching the artifact from its ring owner."),
		peerFetchErrors: reg.Counter("proxy_peer_fetch_errors_total", "Peer artifact fetches that failed and fell back to local compression."),
		ringOwnerHits:   reg.Counter("proxy_ring_owner_hits_total", "Cache-missing cacheable requests whose key this node owns."),
		ringRemoteHits:  reg.Counter("proxy_ring_remote_hits_total", "Cache-missing cacheable requests whose key a peer owns."),

		connsTotal:    reg.Counter("proxy_conns_total", "Connections accepted and served."),
		connsActive:   reg.Gauge("proxy_conns_active", "Connections currently open, mid-request or idle between requests."),
		connsRejected: reg.Counter("proxy_conns_rejected_total", "Connections shed with statusBusy at the MaxConns cap."),
		errors:        reg.Counter("proxy_errors_total", "Connections that ended in an error."),

		cacheEntries: reg.Gauge("proxy_cache_entries", "Artifacts currently cached."),
		cacheBytes:   reg.Gauge("proxy_cache_bytes", "Bytes currently charged to the artifact cache."),

		compressQueueDepth: reg.Gauge("server_compress_queue_depth",
			"Requests queued for or holding a compression worker slot."),

		latency: reg.Histogram("proxy_request_seconds", "Per-request wall time, from the request's arrival (a connection's first request: its accept) to the end of its response.", latencyBoundsSeconds()),

		compressRate: reg.Histogram("server_compress_bytes_per_second",
			"Raw bytes a codec ran on per second spent inside the codec (summed over a build's workers), one sample per build that ran one.",
			[]float64{1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30}),
	}
	for i, s := range compressSchemes {
		m.compressInput[i] = reg.Counter("server_compress_input_bytes_total_"+s.String(),
			"Raw bytes a "+s.String()+" codec ran on when building artifacts.")
	}
	return m
}

// observeCompress records one artifact build: the raw bytes its codec ran
// on, as its scheme's input volume and, over d, the time spent inside
// those codec calls, its throughput. A build that ran no codec observes
// nothing.
func (m *metrics) observeCompress(scheme codec.Scheme, rawBytes int, d time.Duration) {
	if rawBytes == 0 {
		return
	}
	for i, s := range compressSchemes {
		if s == scheme {
			m.compressInput[i].Add(int64(rawBytes))
			break
		}
	}
	if sec := d.Seconds(); sec > 0 {
		m.compressRate.Observe(float64(rawBytes) / sec)
	}
}

// observeLatency records one request's wall time.
func (m *metrics) observeLatency(d time.Duration) {
	m.latency.Observe(d.Seconds())
}

// LatencyBucket is one histogram bucket of a Stats snapshot. UpTo is the
// inclusive upper edge; the overflow bucket has UpTo == 0.
type LatencyBucket struct {
	UpTo  time.Duration
	Count int64
}

// Stats is a point-in-time snapshot of the server's counters, returned by
// Server.Stats. The same instruments back the admin plane, so this
// snapshot, the SIGUSR1 report and /statsz always agree.
//
// Counter relationships (exact when the cache never evicts, otherwise
// lower bounds):
//
//	CacheHits + CacheMisses   == cacheable requests served
//	Compressions + Coalesced  == CacheMisses (modulo errored requests)
//	Compressions              == distinct (file, scheme, decider) keys built
type Stats struct {
	// Requests counts frames successfully parsed off accepted
	// connections (LIST and GET alike).
	Requests int64

	// Cache counters. A request that finds its compressed block stream in
	// the cache is a hit; otherwise it is a miss and either runs the
	// compression itself (Compressions) or waits on an identical in-flight
	// compression (Coalesced, the singleflight win).
	CacheHits    int64
	CacheMisses  int64
	Coalesced    int64
	Compressions int64
	Evictions    int64
	// CacheRejects counts artifacts larger than the whole cache budget.
	CacheRejects int64
	// CacheEntries / CacheBytes are the cache's current occupancy.
	CacheEntries int
	CacheBytes   int64
	// CompressQueueDepth is the instantaneous compression backlog:
	// requests queued for or holding a worker slot at snapshot time.
	CompressQueueDepth int64

	// Payload bytes that crossed the wire in raw and compressed blocks.
	BytesServedRaw        int64
	BytesServedCompressed int64

	// Cluster counters: misses satisfied by fetching the compressed
	// artifact from its ring owner (vs recompressing locally), fetches
	// that failed and degraded to local compression, and how the ring
	// routed this node's cache-missing cacheable requests.
	PeerFetches     int64
	PeerFetchErrors int64
	RingOwnerHits   int64
	RingRemoteHits  int64

	// Connection counters: ConnsTotal counts connections accepted,
	// ConnsActive those open now (mid-request or idle between requests).
	// ConnsRejected counts connections turned away with statusBusy at the
	// MaxConns cap, when no idle connection could be evicted.
	ConnsTotal    int64
	ConnsActive   int64
	ConnsRejected int64
	Errors        int64

	// Latency is the per-request wall-time histogram, one bucket per
	// bound plus a trailing overflow bucket.
	Latency []LatencyBucket

	// CompressInputBytes is raw bytes submitted to each compression scheme
	// when building artifacts, keyed by scheme name.
	CompressInputBytes map[string]int64
}

// Add returns the field-by-field sum of two snapshots, gauges and
// histogram included: what a cluster's nodes report as one server (their
// latency bucket bounds are the same).
func (s Stats) Add(o Stats) Stats {
	s.Requests += o.Requests
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.Coalesced += o.Coalesced
	s.Compressions += o.Compressions
	s.Evictions += o.Evictions
	s.CacheRejects += o.CacheRejects
	s.CacheEntries += o.CacheEntries
	s.CacheBytes += o.CacheBytes
	s.CompressQueueDepth += o.CompressQueueDepth
	s.BytesServedRaw += o.BytesServedRaw
	s.BytesServedCompressed += o.BytesServedCompressed
	s.PeerFetches += o.PeerFetches
	s.PeerFetchErrors += o.PeerFetchErrors
	s.RingOwnerHits += o.RingOwnerHits
	s.RingRemoteHits += o.RingRemoteHits
	s.ConnsTotal += o.ConnsTotal
	s.ConnsActive += o.ConnsActive
	s.ConnsRejected += o.ConnsRejected
	s.Errors += o.Errors
	// Neither operand's slice or map is written to.
	sum := append([]LatencyBucket(nil), s.Latency...)
	for i, b := range o.Latency {
		if i == len(sum) {
			sum = append(sum, LatencyBucket{UpTo: b.UpTo})
		}
		sum[i].Count += b.Count
	}
	s.Latency = sum
	in := make(map[string]int64, len(o.CompressInputBytes))
	for k, v := range s.CompressInputBytes {
		in[k] = v
	}
	for k, v := range o.CompressInputBytes {
		in[k] += v
	}
	s.CompressInputBytes = in
	return s
}

// snapshot materialises the instruments into a Stats value.
func (m *metrics) snapshot() Stats {
	s := Stats{
		Requests:              m.requests.Value(),
		CacheHits:             m.cacheHits.Value(),
		CacheMisses:           m.cacheMisses.Value(),
		Coalesced:             m.coalesced.Value(),
		Compressions:          m.compressions.Value(),
		Evictions:             m.evictions.Value(),
		CacheRejects:          m.cacheRejects.Value(),
		CacheEntries:          int(m.cacheEntries.Value()),
		CacheBytes:            m.cacheBytes.Value(),
		CompressQueueDepth:    m.compressQueueDepth.Value(),
		BytesServedRaw:        m.bytesRaw.Value(),
		BytesServedCompressed: m.bytesCompressed.Value(),
		PeerFetches:           m.peerFetches.Value(),
		PeerFetchErrors:       m.peerFetchErrors.Value(),
		RingOwnerHits:         m.ringOwnerHits.Value(),
		RingRemoteHits:        m.ringRemoteHits.Value(),
		ConnsTotal:            m.connsTotal.Value(),
		ConnsActive:           m.connsActive.Value(),
		ConnsRejected:         m.connsRejected.Value(),
		Errors:                m.errors.Value(),
	}
	hs := m.latency.Snapshot()
	s.Latency = make([]LatencyBucket, 0, len(hs.Counts))
	for i, c := range hs.Counts {
		b := LatencyBucket{Count: c}
		if i < len(latencyBounds) {
			b.UpTo = latencyBounds[i]
		}
		s.Latency = append(s.Latency, b)
	}
	s.CompressInputBytes = make(map[string]int64, len(compressSchemes))
	for i, sc := range compressSchemes {
		s.CompressInputBytes[sc.String()] = m.compressInput[i].Value()
	}
	return s
}

// String renders the snapshot as a compact multi-line report, the format
// proxyd prints on SIGUSR1 and at shutdown.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests: %d\n", s.Requests)
	fmt.Fprintf(&b, "cache: %d hits, %d misses, %d coalesced, %d compressions, %d evictions, %d rejects\n",
		s.CacheHits, s.CacheMisses, s.Coalesced, s.Compressions, s.Evictions, s.CacheRejects)
	fmt.Fprintf(&b, "cache occupancy: %d entries, %d bytes\n", s.CacheEntries, s.CacheBytes)
	if s.CompressQueueDepth != 0 {
		fmt.Fprintf(&b, "compress queue: %d waiting or running\n", s.CompressQueueDepth)
	}
	fmt.Fprintf(&b, "served: %d bytes raw, %d bytes compressed\n", s.BytesServedRaw, s.BytesServedCompressed)
	fmt.Fprintf(&b, "conns: %d total, %d active, %d rejected, %d errors\n",
		s.ConnsTotal, s.ConnsActive, s.ConnsRejected, s.Errors)
	if s.PeerFetches != 0 || s.PeerFetchErrors != 0 || s.RingOwnerHits != 0 || s.RingRemoteHits != 0 {
		fmt.Fprintf(&b, "cluster: %d peer fetches, %d fetch errors, %d owner hits, %d remote hits\n",
			s.PeerFetches, s.PeerFetchErrors, s.RingOwnerHits, s.RingRemoteHits)
	}
	b.WriteString("compress input:")
	for _, sc := range compressSchemes {
		fmt.Fprintf(&b, " %s=%d", sc, s.CompressInputBytes[sc.String()])
	}
	b.WriteString("\n")
	b.WriteString("latency:")
	for _, bk := range s.Latency {
		if bk.Count == 0 {
			continue
		}
		if bk.UpTo == 0 {
			fmt.Fprintf(&b, " [+inf]=%d", bk.Count)
		} else {
			fmt.Fprintf(&b, " [<%v]=%d", bk.UpTo, bk.Count)
		}
	}
	return b.String()
}
