package proxy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/selective"
)

// Client defaults.
const (
	// defaultMaxFetchBytes caps a fetch's total raw size (1 GiB): a server
	// header claiming more is rejected before any allocation.
	defaultMaxFetchBytes = 1 << 30
	// maxPrealloc clamps the output buffer's up-front capacity. The claimed
	// RawSize only seeds the allocation up to this bound; beyond it the
	// buffer grows with the bytes that actually arrive, so a lying header
	// cannot cost more memory than the data the server really sends.
	maxPrealloc = 1 << 20

	defaultRetryBase = 50 * time.Millisecond
	defaultRetryMax  = 2 * time.Second
)

// Client is the handheld side: it fetches files from the proxy and
// decompresses arriving blocks in a pipeline concurrent with reception
// (the user-level interleaving of Section 4.1). Every length field that
// arrives off the wire is bounded before it sizes an allocation, and
// transient failures — ErrBusy shedding, dial errors, resets, corrupted
// frames on a lossy link — are retried with exponential backoff, resuming
// an interrupted fetch from the last CRC-verified block.
type Client struct {
	addr string
	// DialTimeout bounds connection establishment.
	DialTimeout time.Duration
	// Timeout, when positive, bounds each attempt of a List or Fetch call
	// via a connection deadline, so a stalled proxy cannot wedge the
	// handheld.
	Timeout time.Duration
	// MaxFetchBytes caps the total raw size of one fetch; a CRC-clean
	// header claiming more fails permanently. 0 selects 1 GiB.
	MaxFetchBytes int64
	// MaxRetries is how many additional attempts a List or Fetch makes
	// after a transient failure. 0 disables retries (every failure is
	// final), matching the pre-retry behavior.
	MaxRetries int
	// RetryBaseDelay seeds the exponential backoff (default 50ms); the
	// delay doubles per attempt up to RetryMaxDelay (default 2s), with
	// jitter in [d/2, d) to decorrelate retry storms.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration

	// Tracer, when set, receives one span per Fetch: the phase timeline
	// (dial, header, recv, decompress, verify, backoff, resume) across
	// every attempt, charged with modeled joules on success so the trace
	// shows radio vs CPU energy the way the paper's model splits it.
	Tracer *obs.Tracer
	// EnergyParams is the model used to charge finished fetch spans; nil
	// selects the paper's 11 Mb/s parameters.
	EnergyParams *energy.Params
	// Metrics, when set, records the handheld-side instruments: backoff
	// actually slept, resumed bytes, attempts per fetch, and the
	// permanent-vs-transient error classification — the numbers that make
	// a fault-rate run diagnosable without a debugger.
	Metrics *obs.Registry
	// Logger receives structured per-attempt logs tagged with the fetch's
	// request ID (the same ID the server logs). Nil discards.
	Logger *slog.Logger
	// Events, when set, receives one wide event per finished Fetch (both
	// outcomes) carrying the transfer's bytes, phases, attempts and
	// modeled per-class joules. Nil costs the fetch hot path nothing —
	// not even an allocation.
	Events *export.Sink
	// DeadlineClass, when nonzero, declares this handheld's latency class
	// to the server (decider.ClassFromByte vocabulary: 1 relaxed, 2
	// standard, 3 strict). EnergyBudgetJ, when positive, declares its
	// remaining energy budget in joules (advisory; the server counts
	// over-budget decisions, it never degrades the transfer). Either being
	// set upgrades requests to the extended GET op; both zero keeps the
	// wire frames byte-identical to a pre-extension client.
	DeadlineClass uint8
	EnergyBudgetJ float64
	// DeviceClass tags emitted events with the handheld's device class
	// (e.g. export.DeviceIPAQ11), the calibrator's grouping key. Empty is
	// read downstream as the paper's primary 11 Mb/s configuration.
	DeviceClass string
	// LinkRateBps tags emitted events with the modeled link rate in bytes
	// per second, purely informational.
	LinkRateBps float64

	// Clock supplies the time source for connection deadlines, retry
	// backoff sleeps and span phase timestamps; nil selects the host
	// clock. The deterministic testbed (internal/simnet) injects its
	// virtual clock here, so a retrying fetch's backoff advances
	// simulated time instead of stalling the test for real seconds.
	Clock WallClock
	// Dial, when set, replaces TCP dialing entirely (DialTimeout is then
	// unused; Timeout still applies as a connection deadline). The
	// testbed injects a virtual-network dialer — optionally wrapped in a
	// faultconn plan — through this hook.
	Dial func() (net.Conn, error)
	// Rand, when set, drives the retry backoff jitter and request-ID
	// minting, making one client's wire behavior reproducible from a
	// seed. Nil uses the global math/rand source. A non-nil Rand must not
	// be shared with other goroutines.
	Rand *rand.Rand

	metricsOnce sync.Once
	cm          clientMetrics
}

// clock resolves the configured or default time source.
func (c *Client) clock() WallClock {
	if c.Clock != nil {
		return c.Clock
	}
	return SystemClock{}
}

// randInt63n draws from the injected source, or the global one.
func (c *Client) randInt63n(n int64) int64 {
	if c.Rand != nil {
		return c.Rand.Int63n(n)
	}
	return rand.Int63n(n)
}

// randUint64 draws from the injected source, or the global one.
func (c *Client) randUint64() uint64 {
	if c.Rand != nil {
		return c.Rand.Uint64()
	}
	return rand.Uint64()
}

// clientMetrics are the handheld-side instruments, resolved lazily from
// Client.Metrics. All instruments are nil (and absorb everything) when no
// registry is configured.
type clientMetrics struct {
	backoffSeconds  *obs.Histogram
	resumedBytes    *obs.Histogram
	attempts        *obs.Histogram
	decompressRate  *obs.Histogram
	errorsTransient *obs.Counter
	errorsPermanent *obs.Counter
}

// metrics resolves the instrument set on first use.
func (c *Client) metrics() *clientMetrics {
	c.metricsOnce.Do(func() {
		reg := c.Metrics // nil registry hands out nil instruments
		c.cm = clientMetrics{
			backoffSeconds: reg.Histogram("client_backoff_sleep_seconds",
				"Retry backoff actually slept, one sample per sleep.",
				[]float64{0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2, 5}),
			resumedBytes: reg.Histogram("client_resumed_bytes",
				"Raw bytes a retry attempt did not re-transfer, one sample per resumed attempt.",
				[]float64{1 << 10, 16 << 10, 128 << 10, 1 << 20, 16 << 20, 256 << 20}),
			attempts: reg.Histogram("client_fetch_attempts",
				"Connections one Fetch call used (1 = no retries).",
				[]float64{1, 2, 3, 5, 10, 20, 40}),
			decompressRate: reg.Histogram("client_decompress_bytes_per_second",
				"Raw bytes produced per second of decompressor busy time, one sample per attempt that decompressed blocks.",
				[]float64{1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30}),
			errorsTransient: reg.Counter("client_errors_transient_total",
				"Attempt failures classified as link damage (retried)."),
			errorsPermanent: reg.Counter("client_errors_permanent_total",
				"Attempt failures classified as the server's honest answer (not retried)."),
		}
	})
	return &c.cm
}

// logger returns the configured logger or a discard logger.
func (c *Client) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return obs.NopLogger()
}

// NewClient returns a client for the proxy at addr.
func NewClient(addr string) *Client {
	return &Client{addr: addr, DialTimeout: 10 * time.Second}
}

// permanentError marks a failure retrying cannot fix: the frame that
// carried it was CRC-verified, so it is the server's honest answer rather
// than link damage.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func permanent(err error) error { return &permanentError{err: err} }

// ErrorClass folds a client-visible error into a stable class token
// (busy/notfound/protocol/err, "" for nil) — the vocabulary canonical
// traces and wide events use, so exported streams never carry raw error
// strings that vary across Go versions.
func ErrorClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrBusy):
		return "busy"
	case errors.Is(err, ErrNotFound):
		return "notfound"
	case errors.Is(err, ErrProtocol):
		return "protocol"
	default:
		return "err"
	}
}

// isTransient reports whether retrying can plausibly fix err. Anything not
// explicitly marked permanent is considered link damage: on a lossy WLAN a
// truncated frame, a reset, or a CRC mismatch is indistinguishable from
// loss, and the paper's testbed treats retransmission as the norm.
func isTransient(err error) bool {
	var pe *permanentError
	return !errors.As(err, &pe)
}

func (c *Client) maxFetch() int64 {
	if c.MaxFetchBytes > 0 {
		return c.MaxFetchBytes
	}
	return defaultMaxFetchBytes
}

// backoffDelay is the sleep before retry number attempt (0-based):
// exponential with full jitter, capped at RetryMaxDelay.
func (c *Client) backoffDelay(attempt int) time.Duration {
	base := c.RetryBaseDelay
	if base <= 0 {
		base = defaultRetryBase
	}
	maxd := c.RetryMaxDelay
	if maxd <= 0 {
		maxd = defaultRetryMax
	}
	d := base
	for i := 0; i < attempt && d < maxd; i++ {
		d *= 2
	}
	if d > maxd {
		d = maxd
	}
	if half := d / 2; half > 0 {
		d = half + time.Duration(c.randInt63n(int64(half)+1))
	}
	return d
}

// dial connects and applies the per-call deadline.
func (c *Client) dial() (net.Conn, error) {
	var conn net.Conn
	var err error
	if c.Dial != nil {
		conn, err = c.Dial()
	} else {
		conn, err = net.DialTimeout("tcp", c.addr, c.DialTimeout)
	}
	if err != nil {
		return nil, err
	}
	if c.Timeout > 0 {
		if err := conn.SetDeadline(c.clock().Now().Add(c.Timeout)); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return conn, nil
}

// FetchStats reports what crossed the wire.
type FetchStats struct {
	RawBytes         int
	WireBytes        int // frames actually received (headers, blocks, end frames), summed across attempts
	BlocksTotal      int
	BlocksCompressed int
	Factor           float64
	// Attempts is how many connections the fetch used (1 = no retries).
	Attempts int
	// ResumedBytes counts raw bytes retry attempts did NOT re-transfer
	// because the server granted a resume offset.
	ResumedBytes int
	// BackoffSlept is the total wall time spent sleeping between attempts.
	BackoffSlept time.Duration
	// DecompressWall is the wall time the decompression goroutine spent
	// busy (host-machine time; energy accounting uses the simulator, not
	// this number).
	DecompressWall time.Duration
}

// List fetches the server's file catalogue, retrying transient failures up
// to MaxRetries times.
func (c *Client) List() ([]string, error) {
	var names []string
	err := c.withRetries(func() (err error) {
		names, err = c.listOnce()
		return err
	}, nil)
	return names, err
}

// withRetries is the one retry loop: it runs op, classifies each failure
// as transient or permanent (counting both), and sleeps an exponential
// backoff before re-running a transient one, up to MaxRetries re-runs.
// onBackoff, when non-nil, is told the error being retried and the sleep
// actually taken.
func (c *Client) withRetries(op func() error, onBackoff func(err error, start time.Time, slept time.Duration)) error {
	cm := c.metrics()
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		transient := isTransient(err)
		if transient {
			cm.errorsTransient.Add(1)
		} else {
			cm.errorsPermanent.Add(1)
		}
		if attempt >= c.MaxRetries || !transient {
			return err
		}
		clk := c.clock()
		start := clk.Now()
		clk.Sleep(c.backoffDelay(attempt))
		slept := clk.Now().Sub(start)
		cm.backoffSeconds.Observe(slept.Seconds())
		if onBackoff != nil {
			onBackoff(err, start, slept)
		}
	}
}

func (c *Client) listOnce() ([]string, error) {
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := writeRequest(conn, request{Op: opList}); err != nil {
		return nil, err
	}
	br := getConnReader(conn)
	defer putConnReader(br)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	switch hdr[0] {
	case statusOK:
	case statusBusy:
		return nil, ErrBusy
	default:
		return nil, fmt.Errorf("%w: status %d", ErrProtocol, hdr[0])
	}
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: %d names", ErrProtocol, n)
	}
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var n16 [2]byte
		if _, err := io.ReadFull(br, n16[:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		nameLen := int(binary.BigEndian.Uint16(n16[:]))
		if nameLen > maxNameLen {
			return nil, fmt.Errorf("%w: name length %d", ErrProtocol, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		names = append(names, string(name))
	}
	return names, nil
}

// budgetMilliJoules folds a joule budget into the wire's uint32
// millijoule field, saturating instead of overflowing (a budget past ~4.3
// megajoules is indistinguishable from unlimited anyway).
func budgetMilliJoules(j float64) uint32 {
	if !(j > 0) { // also rejects NaN
		return 0
	}
	mj := j * 1000
	if mj >= float64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(mj)
}

// Fetch downloads name with the given scheme and mode, returning the
// verified content and transfer statistics. Reception and decompression
// run in separate goroutines: block i decompresses while block i+1 is on
// the wire. Transient failures are retried up to MaxRetries times; each
// retry resumes from the last verified block (every block payload is
// CRC-checked on receipt, so the prefix accumulated before a failure is
// trustworthy).
func (c *Client) Fetch(name string, scheme codec.Scheme, mode Mode) ([]byte, FetchStats, error) {
	var stats FetchStats
	// The request ID is minted once per Fetch and shared by every retry
	// attempt, so the server's logs and /tracez spans correlate all the
	// connections one logical fetch opened.
	reqID := c.randUint64()
	span := c.Tracer.Start("fetch")
	if span != nil { // or the ID is formatted for nobody
		span.SetAttr("req_id", obs.ReqID(reqID))
		span.SetAttr("name", name)
		span.SetAttr("scheme", scheme.String())
		span.SetAttr("mode", mode.String())
	}
	// Both log lines below, a retry's and a failure's, are off the common
	// path: the logger and its attributes are built when one is written.
	log := func() *slog.Logger { return c.logger().With("req_id", obs.ReqID(reqID), "name", name) }
	vStart := c.clock().Now()
	var out []byte
	err := c.withRetries(func() (err error) {
		stats.Attempts++
		// Whatever this attempt verified is the next one's resume prefix.
		out, err = c.fetchOnce(name, scheme, mode, reqID, out, &stats, span)
		return err
	}, func(err error, start time.Time, slept time.Duration) {
		log().Debug("retrying after transient failure", "attempt", stats.Attempts, "err", err)
		stats.BackoffSlept += slept
		span.PhaseDetail("backoff", "", fmt.Sprintf("after attempt %d", stats.Attempts), start, slept, 0)
	})
	c.metrics().attempts.Observe(float64(stats.Attempts))
	var bd energy.Breakdown
	if err != nil {
		out = nil
		span.Fail(err)
		log().Warn("fetch failed", "attempts", stats.Attempts, "err", err)
	} else {
		stats.RawBytes = len(out)
		stats.Factor = codec.Factor(stats.RawBytes, stats.WireBytes)
		p := energy.Params11Mbps()
		if c.EnergyParams != nil {
			p = *c.EnergyParams
		}
		bd = p.TransferBreakdown(stats.RawBytes, stats.WireBytes, stats.BlocksCompressed)
		chargeSpan(span, bd)
	}
	span.Finish()
	c.emitFetchEvent(reqID, name, scheme, mode, span, stats, c.clock().Now().Sub(vStart), bd, err)
	return out, stats, err
}

// chargeSpan attributes the finished transfer's modeled energy (the
// energy.Params.TransferBreakdown charge) to the span's phases. Radio
// joules spread over the dial/header/recv phases byte-weighted, CPU joules
// over decompress/verify duration-weighted, and the idle residual lands in
// one accounting entry, so the span's TotalJoules equals the model's
// whole-transfer answer exactly (see energy.Breakdown).
func chargeSpan(span *obs.Span, bd energy.Breakdown) {
	span.DistributeJoules(obs.ClassRadio, bd.RadioJ)
	span.DistributeJoules(obs.ClassCPU, bd.CPUJ)
	span.AccountPhase("idle", obs.ClassIdle, bd.IdleJ)
}

// emitFetchEvent publishes one wide event for a finished fetch (either
// outcome) to the configured sink. The nil-sink guard comes first so the
// default path costs one branch and zero allocations; everything the
// event needs is only materialised past it. bd is the same breakdown
// chargeSpan was handed (zero on failure), so the event's per-class totals
// equal the model's answer exactly even when no tracer (and thus no
// charged span) is configured.
func (c *Client) emitFetchEvent(reqID uint64, name string, scheme codec.Scheme, mode Mode, span *obs.Span, stats FetchStats, dur time.Duration, bd energy.Breakdown, err error) {
	if c.Events == nil {
		return
	}
	e := export.Event{
		Time:             time.Now().UTC().Format(time.RFC3339Nano),
		Span:             "fetch",
		ReqID:            obs.ReqID(reqID),
		Name:             name,
		Scheme:           scheme.String(),
		Mode:             mode.String(),
		Device:           c.DeviceClass,
		LinkBps:          c.LinkRateBps,
		Outcome:          "ok",
		RawBytes:         int64(stats.RawBytes),
		WireBytes:        int64(stats.WireBytes),
		Blocks:           stats.BlocksTotal,
		BlocksCompressed: stats.BlocksCompressed,
		Attempts:         stats.Attempts,
		ResumedBytes:     int64(stats.ResumedBytes),
		DurNS:            dur.Nanoseconds(),
		Phases:           export.FoldPhases(span.Data().Phases),
		RadioJ:           bd.RadioJ,
		CPUJ:             bd.CPUJ,
		IdleJ:            bd.IdleJ,
	}
	if err != nil {
		e.Outcome = ErrorClass(err)
	}
	c.Events.Record(e)
}

// appendBlock decodes b onto the tail of out, a fetch's output so far of
// rawSize bytes in all, and returns it extended — or unchanged, with the
// error, when b does not decode to the RawLen it claims.
func appendBlock(dec codec.Codec, out []byte, b selective.Block, rawSize uint64) ([]byte, error) {
	grown := out
	if b.Compressed {
		var err error
		if grown, err = codec.DecompressInto(dec, out, b.Payload, b.RawLen); err != nil {
			return out, err
		}
		if n := len(grown) - len(out); n != b.RawLen {
			return out, fmt.Errorf("%w: block raw length %d, header %d", ErrProtocol, n, b.RawLen)
		}
	} else {
		grown = append(out, b.Payload...)
	}
	// The caller's rawPromised budget already bounds this; re-checked so the
	// memory guarantee does not depend on code in another place.
	if uint64(len(grown)) > rawSize {
		return out, fmt.Errorf("%w: %d raw bytes received, header says %d", ErrProtocol, len(grown), rawSize)
	}
	return grown, nil
}

// blockDecoder decodes a fetch's blocks onto the tail of out, in order,
// and drops every block after the first that fails.
type blockDecoder struct {
	dec     codec.Codec
	out     []byte
	rawSize uint64
	failed  error // the first block's failure
	decoded int   // the blocks decoded before it
	wall    time.Duration
	bytes   int64 // raw bytes of the compressed blocks decoded
}

// decode decodes b, unless a block before it failed, and gives its payload
// back to the pool.
func (d *blockDecoder) decode(b selective.Block) {
	if d.failed == nil {
		start := time.Now()
		if d.out, d.failed = appendBlock(d.dec, d.out, b, d.rawSize); d.failed == nil {
			d.decoded++
			if b.Compressed {
				d.bytes += int64(b.RawLen)
			}
		}
		d.wall += time.Since(start)
	}
	codec.PutBuf(b.Payload)
}

// decodePipeline takes a fetch's blocks from the receive loop to its
// blockDecoder. As made, it decodes each block as it is handed over; the
// pipeline onGoroutine returns runs the decoder on a goroutine of its own
// instead. Either way the loop learns of block i's failure at the same
// point, when block i+2 is handed over or at finish, so the counts never
// depend on scheduling, nor on which way the blocks were decoded.
type decodePipeline struct {
	dec      blockDecoder
	blocks   chan selective.Block // nil while dec is decoded inline
	verdicts chan error
	handed   int
}

// onGoroutine returns a pipeline that runs p's decoder on its own goroutine,
// working on block i while block i+1 is received: blocks go in through a
// channel of one, and out comes one verdict per block. Until finish the
// decoder, and the output in it, belong to that goroutine.
func (p *decodePipeline) onGoroutine() *decodePipeline {
	q := &decodePipeline{dec: p.dec, blocks: make(chan selective.Block, 1), verdicts: make(chan error, 1)}
	go func() {
		defer close(q.verdicts)
		for b := range q.blocks {
			q.dec.decode(b)
			q.verdicts <- q.dec.failed
		}
	}()
	return q
}

// handOver gives b to the decoder. From the third block on it first takes
// the verdict on the block two before — the only point a failure is learnt
// while blocks still arrive, which keeps at most one verdict outstanding
// and memory bounded — and on a failure returns it, keeping b.
func (p *decodePipeline) handOver(b selective.Block) error {
	if p.handed >= 2 {
		if err := p.verdict(p.handed - 2); err != nil {
			return err
		}
	}
	p.handed++
	if p.blocks == nil {
		p.dec.decode(b)
	} else {
		p.blocks <- b
	}
	return nil
}

// verdict is the failure, if block i or one before it failed. The goroutine
// sends its verdicts in block order, and they are taken one per block.
func (p *decodePipeline) verdict(i int) error {
	if p.blocks != nil {
		return <-p.verdicts
	}
	if p.dec.decoded <= i {
		return p.dec.failed
	}
	return nil
}

// finish waits for the blocks handed over to be decoded and returns the
// decoder.
func (p *decodePipeline) finish() blockDecoder {
	if p.blocks != nil {
		close(p.blocks)
		for range p.verdicts {
		}
	}
	return p.dec
}

// fetchOnce runs a single connection's worth of a fetch. verified is the
// raw prefix already CRC-verified by earlier attempts; the returned slice
// extends (a server-granted prefix of) it with this attempt's verified
// blocks — or is nil when a content-level CRC failure means the resume
// state must be discarded.
// Phases this attempt goes through are recorded on span (nil-safe), tagged
// with the attempt number so a multi-attempt trace reads as a timeline.
func (c *Client) fetchOnce(name string, scheme codec.Scheme, mode Mode, reqID uint64, verified []byte, stats *FetchStats, span *obs.Span) (out []byte, err error) {
	var attemptDetail string // read by span alone
	if span != nil {
		attemptDetail = fmt.Sprintf("attempt %d", stats.Attempts)
	}
	out = verified
	// Radio-facing phases (dial, header, recv) are stamped from the
	// injected clock, so under the virtual testbed a span's timeline shows
	// the modeled link time, not host-scheduler noise. CPU busy phases
	// (decompress) keep host-time durations — that is what they measure.
	clk := c.clock()
	dialStart := clk.Now()
	conn, err := c.dial()
	span.PhaseDetail("dial", obs.ClassRadio, attemptDetail, dialStart, clk.Now().Sub(dialStart), 0)
	if err != nil {
		return out, err
	}
	defer conn.Close()

	hdrStart := clk.Now()
	req := request{Op: opGet, Name: name, Scheme: scheme, Mode: mode, Offset: uint64(len(verified)), ReqID: reqID}
	if c.DeadlineClass != 0 || c.EnergyBudgetJ > 0 {
		req.Op = opGetEx
		req.Class = c.DeadlineClass
		req.BudgetMJ = budgetMilliJoules(c.EnergyBudgetJ)
	}
	if err := writeRequest(conn, req); err != nil {
		return out, err
	}
	br := getConnReader(conn)
	defer putConnReader(br)
	hdr, err := readGetHeader(br)
	if err != nil {
		return out, err
	}
	// Frame bytes are accounted where they are actually read: an attempt
	// that died at dial or mid-header contributes nothing, so WireBytes
	// stays honest across retries.
	stats.WireBytes += GetHeaderLen
	span.PhaseDetail("header", obs.ClassRadio, attemptDetail, hdrStart, clk.Now().Sub(hdrStart), GetHeaderLen)
	// The header survived its CRC, so its status and fields are the
	// server's honest answer: size/scheme violations are permanent, not
	// link damage.
	switch hdr.Status {
	case statusOK:
	case statusNotFound:
		return out, permanent(fmt.Errorf("%w: %q", ErrNotFound, name))
	case statusBusy:
		return out, ErrBusy
	default:
		return out, permanent(fmt.Errorf("%w: status %d", ErrProtocol, hdr.Status))
	}
	maxFetch := c.maxFetch()
	if hdr.RawSize > uint64(maxFetch) || !selective.FitsInt(hdr.RawSize) {
		return out, permanent(fmt.Errorf("%w: claimed size %d exceeds fetch limit %d", ErrProtocol, hdr.RawSize, maxFetch))
	}
	if hdr.Offset > uint64(len(verified)) {
		return out, permanent(fmt.Errorf("%w: granted offset %d beyond requested %d", ErrProtocol, hdr.Offset, len(verified)))
	}
	// The server may grant less than requested (block alignment, or zero
	// after a re-registration); trim the resume prefix to what it granted.
	out = verified[:hdr.Offset]
	stats.ResumedBytes += int(hdr.Offset)
	if hdr.Offset > 0 {
		c.metrics().resumedBytes.Observe(float64(hdr.Offset))
		span.PhaseDetail("resume", "", attemptDetail, clk.Now(), 0, int64(hdr.Offset))
	}

	dec, err := codec.New(hdr.Scheme, 0)
	if err != nil {
		return out, permanent(fmt.Errorf("%w: %v", ErrProtocol, err))
	}

	// Clamp the up-front allocation: trust the claimed size only up to
	// maxPrealloc, then grow with the bytes that actually arrive. out is
	// handed to the caller, so it cannot come from the buffer pool.
	if need := int(hdr.RawSize); cap(out) == 0 && need > 0 {
		out = make([]byte, 0, min(need, maxPrealloc))
	}

	// The receive loop (this goroutine, standing in for the kernel interrupt
	// handler) hands each block through a decodePipeline to a blockDecoder,
	// which decodes it straight onto out's tail and stops appending at the
	// first that fails, so out is always a prefix of the file. When more
	// than one block is to come the decoder runs on its own goroutine; a
	// fetch with at most one block left — the header says so — decodes in
	// the loop, with no goroutine and no channel.
	// Payloads come from the codec buffer pool (ReadBlock) and go back once
	// decoded: a block lives in the socket buffer, one pooled payload and out.
	pipe := &decodePipeline{dec: blockDecoder{dec: dec, out: out, rawSize: hdr.RawSize}}
	if hdr.RawSize-hdr.Offset > selective.BlockSize {
		pipe = pipe.onGoroutine()
	}

	var wantCRC uint32
	var recvErr error
	recvBytes := 0
	recvStart := clk.Now()
	// rawPromised tracks the raw bytes the accepted block headers have
	// claimed so far; it may never exceed the header's total.
	rawPromised := hdr.Offset

	for {
		b, crc, ok, err := ReadBlock(br)
		if err != nil {
			recvErr = err
			break
		}
		if !ok {
			wantCRC = crc
			stats.WireBytes += BlockHeaderLen // end frame
			recvBytes += BlockHeaderLen
			break
		}
		rawPromised += uint64(b.RawLen)
		if rawPromised > hdr.RawSize {
			codec.PutBuf(b.Payload)
			recvErr = fmt.Errorf("%w: blocks claim %d raw bytes, header says %d", ErrProtocol, rawPromised, hdr.RawSize)
			break
		}
		stats.BlocksTotal++
		stats.WireBytes += BlockHeaderLen + len(b.Payload)
		recvBytes += BlockHeaderLen + len(b.Payload)
		if b.Compressed {
			stats.BlocksCompressed++
		}
		if err := pipe.handOver(b); err != nil {
			codec.PutBuf(b.Payload) // b never reached the decoder
			recvErr = err
			break
		}
	}
	bd := pipe.finish()
	if recvErr == nil {
		recvErr = bd.failed
	}
	out = bd.out
	stats.DecompressWall += bd.wall
	span.PhaseDetail("recv", obs.ClassRadio, attemptDetail, recvStart, clk.Now().Sub(recvStart), int64(recvBytes))
	if bd.wall > 0 {
		// The decoder runs while blocks are received (Section 4.1's
		// interleaving), so this phase overlaps recv: it starts inside the
		// recv window and carries only busy time.
		span.PhaseDetail("decompress", obs.ClassCPU, attemptDetail+", overlaps recv", recvStart, bd.wall, 0)
		if bd.bytes > 0 {
			// Decompression throughput is what the paper's td term models
			// (td = 0.161*s + 0.161*sc + 0.004): the faster this phase, the
			// less CPU time competes with the radio's tail energy.
			c.metrics().decompressRate.Observe(float64(bd.bytes) / bd.wall.Seconds())
		}
	}

	if recvErr != nil {
		return out, recvErr
	}
	if uint64(len(out)) != hdr.RawSize {
		return out, fmt.Errorf("%w: got %d bytes, header says %d", ErrProtocol, len(out), hdr.RawSize)
	}
	verifyStart := time.Now()
	contentCRC := crcOf(out)
	verifyWall := time.Since(verifyStart)
	span.PhaseDetail("verify", obs.ClassCPU, attemptDetail, clk.Now(), verifyWall, 0)
	if contentCRC != wantCRC {
		// Every block passed its frame CRC, so a whole-content mismatch
		// means the pieces come from different file generations: poison
		// the resume state before retrying.
		return nil, fmt.Errorf("%w: content CRC mismatch", ErrProtocol)
	}
	return out, nil
}
