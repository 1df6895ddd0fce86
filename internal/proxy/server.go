package proxy

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/selective"
)

// ErrClosing is returned to requests caught by a server shutdown.
var ErrClosing = errors.New("proxy: server closing")

// Config tunes the server's dataplane. The zero value selects defaults.
type Config struct {
	// CacheBytes is the byte budget for the compressed-artifact cache, one
	// budget for the whole cache: an artifact up to CacheBytes is cached. 0
	// selects 64 MiB; negative disables caching (every cacheable request
	// compresses, modulo singleflight coalescing).
	CacheBytes int64
	// Workers bounds how many compressions run concurrently; requests
	// beyond the bound queue (backpressure) instead of spawning unbounded
	// compression work. 0 selects GOMAXPROCS.
	Workers int
	// MaxConns caps open connections. At the cap an idle kept connection
	// is evicted to make room for a new one; only when every connection
	// is mid-request does the new one receive statusBusy and close. 0
	// selects 256.
	MaxConns int
	// WrapConn, when set, wraps every accepted connection before the
	// server touches it. It is the hook the fault-injection transport
	// (internal/proxy/faultconn) plugs into, so the whole stack can be
	// exercised over a deliberately hostile link.
	WrapConn func(net.Conn) net.Conn
	// Clock supplies the time source for connection deadlines and the
	// latency histogram; nil selects the host clock. The deterministic
	// testbed (internal/simnet) injects its virtual clock here, which
	// keeps the server's deadlines on the same timeline as the virtual
	// link it is serving over.
	Clock WallClock

	// Metrics is the registry the server's instruments live on; sharing
	// one registry between a server and its admin endpoint (or several
	// servers) is how their series end up in one /metrics page. Nil
	// creates a private registry — Stats keeps working either way.
	Metrics *obs.Registry
	// Tracer retains per-request spans for /tracez. Nil creates a ring of
	// defaultTraceCap spans.
	Tracer *obs.Tracer
	// Logger receives structured request/error logs tagged with the
	// client-propagated request ID. Nil discards.
	Logger *slog.Logger
	// Events, when set, receives one wide event per finished serve span
	// via a tee on the tracer's Finish path, and backs the admin plane's
	// /eventsz endpoint. The sink never blocks the dataplane (full
	// buffers drop and count); its lifecycle belongs to the caller.
	Events *export.Sink

	// What the package's tests shorten: 0 selects defaultReadTimeout and
	// defaultWriteTimeout.
	readTimeout, writeTimeout time.Duration
}

const (
	// defaultReadTimeout bounds how long the server waits for a client's
	// request frame, from the connection's accept or from its last
	// response: it is the idle timeout of a kept connection too.
	defaultReadTimeout = 30 * time.Second
	// defaultWriteTimeout bounds serving the whole response.
	defaultWriteTimeout = 2 * time.Minute
)

func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.readTimeout <= 0 {
		c.readTimeout = defaultReadTimeout
	}
	if c.writeTimeout <= 0 {
		c.writeTimeout = defaultWriteTimeout
	}
	return c
}

// Server is the proxy: a stationary machine that stores files and serves
// them to handheld clients over TCP, optionally compressing them ahead of
// time or on demand. Compressed block streams are cached in an LRU keyed by
// (file, generation, scheme, decision policy); concurrent requests for the
// same uncached key coalesce into one compression, and compressions run
// under a bounded worker budget.
type Server struct {
	decider   selective.Decider
	deciderFP string
	cfg       Config

	reg    *obs.Registry
	tracer *obs.Tracer
	events *export.Sink
	log    *slog.Logger
	clock  WallClock

	// store holds the registered files, the finished artifacts and the
	// flights in the air.
	store   *store
	metrics *metrics
	// workerSem bounds concurrent compressions (the worker pool): a slot
	// must be held while a build compresses.
	workerSem chan struct{}
	// connSem bounds concurrent connections.
	connSem chan struct{}

	connMu sync.Mutex
	conns  map[*serverConn]struct{}
	// freeConns holds the serverConns of ended connections for the next
	// ones to reuse; it never holds more than were open at once.
	freeConns []*serverConn

	ln        net.Listener
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	// onCompress, when set before Listen, observes each artifact build
	// (test hook for the singleflight guarantees; the cluster layer hooks
	// it via SetOnCompress for hot-key replication and oracles).
	onCompress func(ArtifactKey)
	// newCodec is codec.New; tests substitute codecs that fail mid-build.
	newCodec func(codec.Scheme, int) (codec.Codec, error)
	// peerFetch, when set (SetPeerFetch), lets a flight leader satisfy a
	// cache miss by fetching the compressed artifact from the key's ring
	// owner instead of compressing locally.
	peerFetch PeerFetchFunc
}

// fpAlways fingerprints the fixed policy of the non-selective modes.
const fpAlways = "always"

// defaultTraceCap is the span ring size when Config.Tracer is nil.
const defaultTraceCap = 256

// deciderFingerprint distinguishes decision policies in cache keys, so two
// servers' (or a reconfigured server's) artifacts never alias.
func deciderFingerprint(d selective.Decider) string {
	// A decider that names its own policy (the dynamic decider does, with
	// its coefficient set and deadline class baked in) is trusted over the
	// reflective fallback: its fingerprint changes exactly when its
	// decisions can, so dynamic and static artifacts never alias even when
	// both would choose identically on some content.
	if f, ok := d.(interface{ Fingerprint() string }); ok {
		return f.Fingerprint()
	}
	if _, ok := d.(selective.AlwaysCompress); ok {
		return fpAlways
	}
	return fmt.Sprintf("%T%+v", d, d)
}

// NewServer returns a server with the default Config using the given
// decision model for selective mode (nil selects the paper's Equation 6).
func NewServer(decider selective.Decider) *Server {
	return NewServerWith(decider, Config{})
}

// NewServerWith returns a server with an explicit dataplane configuration
// and selective-mode decision model (nil selects the paper's Equation 6).
func NewServerWith(decider selective.Decider, cfg Config) *Server {
	if decider == nil {
		decider = selective.PaperDecider{}
	}
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer(defaultTraceCap)
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	clock := cfg.Clock
	if clock == nil {
		clock = SystemClock{}
	}
	if cfg.Events != nil {
		// The wide-event tee: every span the tracer retains also flattens
		// into one event on the sink, so /eventsz and an exported JSONL
		// stream see exactly what /tracez sees.
		cfg.Events.Bind(reg)
		sink := cfg.Events
		tracer.SetOnFinish(func(d obs.SpanData) { sink.Record(export.FromSpan(d)) })
	}
	s := &Server{
		decider:   decider,
		deciderFP: deciderFingerprint(decider),
		cfg:       cfg,
		reg:       reg,
		tracer:    tracer,
		events:    cfg.Events,
		log:       logger,
		clock:     clock,
		metrics:   newMetrics(reg),
		workerSem: make(chan struct{}, cfg.Workers),
		connSem:   make(chan struct{}, cfg.MaxConns),
		conns:     make(map[*serverConn]struct{}),
		closed:    make(chan struct{}),
		newCodec:  codec.New,
	}
	s.store = newStore(cfg.CacheBytes, s.metrics)
	// A queue-aware decider gets the live compression-queue depth (the
	// decider_* counters land on the same registry). Both bindings are
	// optional interfaces so this package needs no decider dependency.
	if qa, ok := decider.(interface{ BindQueueDepth(func() int) }); ok {
		qa.BindQueueDepth(func() int { return int(s.metrics.compressQueueDepth.Value()) })
	}
	if mb, ok := decider.(interface{ BindMetrics(*obs.Registry) }); ok {
		mb.BindMetrics(reg)
	}
	return s
}

// Register stores a file under name. Content is copied. Re-registering a
// name bumps its generation and drops its cached artifacts.
func (s *Server) Register(name string, content []byte) { s.store.register(name, content) }

// Files lists registered file names, sorted.
func (s *Server) Files() []string { return s.store.names() }

// Stats returns a snapshot of the server's counters. The SIGUSR1 report,
// /statsz and /metrics all read through here (or through the registry the
// same instruments live on), so every exposure of the counters agrees.
func (s *Server) Stats() Stats { return s.metrics.snapshot() }

// Precompress compresses name's blocks with scheme ahead of time, as the
// Section 3 experiments assume ("compressed a priori and stored on the
// proxy server"). It warms the artifact cache; a subsequent
// ModePrecompressed (or ModeOnDemand) request for the same scheme is a
// cache hit.
func (s *Server) Precompress(name string, scheme codec.Scheme) error {
	f, ok := s.store.file(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	key := ArtifactKey{Name: name, Gen: f.gen, Scheme: scheme, FP: fpAlways}
	a, err := s.openArtifact(key, f.content, selective.AlwaysCompress{}, nil, false)
	if err != nil {
		return err
	}
	_, err = a.whole()
	return err
}

// spawnCompress offers a block-compression task an extra worker-pool slot.
// The build already holds one slot (acquired in build), so extra slots are
// taken non-blocking: when the pool is saturated the task runs inline on
// the build's slot instead of queueing — a single cache miss fans out
// across idle workers without ever deadlocking on or oversubscribing the
// bounded pool.
func (s *Server) spawnCompress(task func()) bool {
	select {
	case s.workerSem <- struct{}{}:
	default:
		return false
	}
	go func() {
		defer func() { <-s.workerSem }()
		task()
	}()
	return true
}

// openArtifact is the cache/singleflight fast path: return the cached
// artifact, or join the flight building it — starting that flight, and
// its one build, when this is the first request for the key. It never
// waits for a build: a flight's blocks are read as they are published.
// The span, when present, gains a cache-hit / cache-miss phase, a
// coalesced phase when another request's work is shared, and, for a
// build this request started, a compress-on-demand phase.
// allowPeer enables the cluster peer-fetch consult: a flight leader on a
// non-owner node asks the key's ring owner for the finished artifact
// before burning local compression CPU, and degrades to compressing
// locally on any peer failure — never surfacing an error to the client.
func (s *Server) openArtifact(key ArtifactKey, content []byte, d selective.Decider, span *obs.Span, allowPeer bool) (artifact, error) {
	lookupStart := time.Now()
	a, leader, err := s.store.open(key, selective.NumBlocks(len(content)))
	if err != nil {
		return artifact{}, err
	}
	if s.cfg.CacheBytes > 0 { // with no cache there is nothing to hit or miss
		if a.f == nil {
			s.metrics.cacheHits.Add(1)
			span.Phase("cache-hit", "", lookupStart, time.Since(lookupStart), int64(len(content)))
			return a, nil
		}
		s.metrics.cacheMisses.Add(1)
		span.Phase("cache-miss", "", lookupStart, time.Since(lookupStart), 0)
	}
	if !leader {
		s.metrics.coalesced.Add(1)
		span.PhaseDetail("coalesced", "", "joined an identical in-flight compression", lookupStart, time.Since(lookupStart), 0)
		return a, nil
	}
	f := a.f
	// The peer consult runs here, on the request's own goroutine, and hands
	// over a finished artifact: only local compression streams.
	if allowPeer && s.peerFetch != nil {
		fetchStart := time.Now()
		pb, perr := s.peerFetch(key)
		if perr == nil && len(pb) != len(f.blocks) {
			perr = fmt.Errorf("%w: peer sent %d blocks of a %d-block artifact", ErrProtocol, len(pb), len(f.blocks))
		}
		switch {
		case perr == nil:
			s.metrics.peerFetches.Add(1)
			s.metrics.ringRemoteHits.Add(1)
			span.PhaseDetail("peer-fetch", "", "fetched the artifact from its ring owner", fetchStart, time.Since(fetchStart), int64(len(content)))
			copy(f.blocks, pb)
			// Whether a peer's copy is kept was the hook's to decide, by
			// calling AdmitArtifact (the cluster does for a hot key).
			s.store.finish(key, f, false, nil)
			return artifact{blocks: pb}, nil
		case errors.Is(perr, ErrOwnedLocally):
			s.metrics.ringOwnerHits.Add(1)
		default:
			// Owner unreachable, departed, or at a different
			// generation: degrade to local compression.
			s.metrics.ringRemoteHits.Add(1)
			s.metrics.peerFetchErrors.Add(1)
		}
	}
	// The build gets a goroutine of its own so that it never waits on a
	// client's socket: interleaved with the leader's writes it would stall
	// every follower, and pin a worker slot, behind one slow handheld. On
	// the virtual testbed that goroutine must join the clock's ledger, or
	// virtual time could run on past a build that has not finished.
	s.store.lend(key, f)
	build := func() { s.store.finish(key, f, true, s.build(key, f, content, d, span)) }
	if ledger, ok := s.clock.(interface{ Go(func()) }); ok {
		ledger.Go(build)
	} else {
		go build()
	}
	return a, nil
}

// build compresses content into f under a worker slot, publishing each
// block as it is done but the last, which store.finish publishes once the
// artifact has been admitted. A failed build admits nothing. The codec runs
// once per block of a file generation and scheme: a block that a local
// sibling — the same generation and scheme under another policy — has run
// the codec on, or is running it on, is taken from it (store.take). Every
// build runs the codec at level 0, so the bytes are the same, and the probe
// and every decision still run on the block as they would have.
func (s *Server) build(key ArtifactKey, f *flight, content []byte, d selective.Decider, span *obs.Span) error {
	// Backpressure: block for a worker slot rather than compressing
	// unboundedly; abort if the server is shutting down. The gauge
	// covers the whole queued-or-compressing window — it is the queue
	// depth the dynamic decider reads to price server-side waiting.
	s.metrics.compressQueueDepth.Add(1)
	defer s.metrics.compressQueueDepth.Add(-1)
	select {
	case s.workerSem <- struct{}{}:
	case <-s.closed:
		return ErrClosing
	}
	defer func() { <-s.workerSem }()
	s.metrics.compressions.Add(1)
	if s.onCompress != nil {
		s.onCompress(key)
	}
	start := time.Now()
	c, err := s.newCodec(key.Scheme, 0)
	if err != nil {
		return err
	}
	var encoded, reused, codecTime atomic.Int64
	compress := func(i int, raw []byte) ([]byte, error) {
		if out, ok := s.store.take(key, f, i); ok {
			reused.Add(1)
			return out, nil
		}
		encoded.Add(int64(len(raw)))
		t := time.Now()
		out, err := c.Compress(raw)
		codecTime.Add(int64(time.Since(t)))
		f.ran(i, out, err)
		return out, err
	}
	made, probed := 0, 0
	err = selective.EncodeBlocksParallel(content, compress, d, s.spawnCompress, func(b selective.Block) {
		f.blocks[made] = b
		made++
		if b.Probed {
			probed++
		}
		if made < len(f.blocks) {
			f.publish(made)
			// Let the readers just woken write the block out now. On a host
			// whose processors are all compressing they would otherwise
			// sit runnable until the scheduler's next preemption tick,
			// some 10 ms into the next block.
			runtime.Gosched()
		}
	})
	dur := time.Since(start)
	span.Phase("compress-on-demand", "", start, dur, int64(len(content)))
	span.SetAttr("blocks_probed_raw", strconv.Itoa(probed))
	span.SetAttr("blocks_reused", strconv.FormatInt(reused.Load(), 10))
	s.metrics.probedRaw.Add(int64(probed))
	s.metrics.reused.Add(reused.Load())
	if err != nil {
		return err
	}
	s.metrics.observeCompress(key.Scheme, int(encoded.Load()), time.Duration(codecTime.Load()))
	return nil
}

// chunkRaw frames content as raw blocks without touching a codec.
func chunkRaw(content []byte) []selective.Block {
	n := selective.NumBlocks(len(content))
	if n == 0 {
		return nil
	}
	blocks := make([]selective.Block, 0, n)
	for off := 0; off < len(content); off += selective.BlockSize {
		end := off + selective.BlockSize
		if end > len(content) {
			end = len(content)
		}
		blocks = append(blocks, selective.Block{RawLen: end - off, Payload: content[off:end]})
	}
	return blocks
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serve loops run until Close.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	return s.Serve(ln), nil
}

// Serve starts accepting connections on an already-bound listener and
// returns its address. This is how the deterministic testbed hands the
// server a virtual (internal/simnet) listener; Listen is the TCP
// convenience wrapper around it.
func (s *Server) Serve(ln net.Listener) string {
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if s.cfg.WrapConn != nil {
			conn = s.cfg.WrapConn(conn)
		}
		if !s.takeSlot() {
			// Every slot is mid-request: tell the client we are busy and
			// shed the connection instead of queueing it invisibly.
			s.metrics.connsRejected.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				_ = conn.SetDeadline(s.clock.Now().Add(time.Second))
				_ = writeGetHeader(conn, getHeader{Status: statusBusy})
				// Absorb the client's request before closing so the close
				// does not RST the busy reply out of its receive buffer.
				var buf [512]byte
				_, _ = conn.Read(buf[:])
			}()
			continue
		}
		// The first request's deadline is set here, before Close can find
		// the connection to expire it.
		_ = conn.SetReadDeadline(s.clock.Now().Add(s.cfg.readTimeout))
		sc := s.openConn(conn)
		s.metrics.connsTotal.Add(1)
		s.metrics.connsActive.Add(1)
		s.wg.Add(1)
		go func() {
			defer func() {
				s.metrics.connsActive.Add(-1)
				s.closeConn(sc)
				// The slot first: on the virtual testbed closing the
				// connection hands back the clock's hold on this goroutine,
				// and a client could be refused any number of times before
				// the host ran the line after it.
				<-s.connSem
				conn.Close()
				s.wg.Done()
			}()
			s.serveConn(sc)
		}()
	}
}

// takeSlot reserves a connection slot. At the cap it evicts an idle kept
// connection, whose handler then hands its slot back, and waits for that
// slot; it fails only when every connection is mid-request.
func (s *Server) takeSlot() bool {
	select {
	case s.connSem <- struct{}{}:
		return true
	default:
	}
	if !s.evictIdle() {
		return false
	}
	select {
	case s.connSem <- struct{}{}:
		return true
	case <-s.closed:
		return false
	}
}

// Connection states: a handler is idle while it waits for the first byte
// of a request after serving one, and busy otherwise. The accept loop
// evicts an idle connection at the cap; its handler then ends it.
const (
	connBusy int32 = iota
	connIdle
	connEvicted
)

// serverConn is an accepted connection and what its handler keeps from
// one request to the next: the request reader, sized for a request frame,
// and the peer's address, formatted once.
type serverConn struct {
	net.Conn
	br     *bufio.Reader
	reqs   requestReader
	remote string
	state  atomic.Int32
}

// evictIdle expires the read deadline of one idle kept connection.
func (s *Server) evictIdle() bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	for sc := range s.conns {
		if sc.state.CompareAndSwap(connIdle, connEvicted) {
			_ = sc.SetReadDeadline(s.clock.Now())
			return true
		}
	}
	return false
}

// serveConn serves requests on sc until the client closes it, it sits
// idle past readTimeout, it is evicted, or a request fails. A connection
// that ends between requests is not an error.
func (s *Server) serveConn(sc *serverConn) {
	for {
		start := s.clock.Now()
		err := s.handle(sc)
		s.metrics.observeLatency(s.clock.Now().Sub(start))
		if err != nil {
			s.metrics.errors.Add(1)
			s.log.Warn("request failed", "remote", sc.remote, "err", err)
			return
		}
		if !s.awaitRequest(sc) {
			return
		}
	}
}

// awaitRequest waits, idle, for the first byte of sc's next request, and
// reports whether one arrived before the client closed the connection,
// readTimeout passed, or the connection was evicted.
func (s *Server) awaitRequest(sc *serverConn) bool {
	// A client must present its whole request within readTimeout of the
	// last response: readTimeout is the idle timeout too.
	if err := sc.SetReadDeadline(s.clock.Now().Add(s.cfg.readTimeout)); err != nil {
		return false
	}
	sc.state.Store(connIdle)
	// Close expires the deadline of every connection it finds after
	// closing s.closed; one that went idle before then has its deadline
	// expired, one that goes idle after sees s.closed here.
	select {
	case <-s.closed:
		return false
	default:
	}
	_, err := sc.br.Peek(1)
	return sc.state.CompareAndSwap(connIdle, connBusy) && err == nil
}

// openConn tracks conn as a serverConn from the free list, where
// closeConn returns it once the handler is done with it: a client that
// opens a connection per fetch costs no serverConn per fetch.
func (s *Server) openConn(conn net.Conn) *serverConn {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	var sc *serverConn
	if n := len(s.freeConns); n > 0 {
		sc = s.freeConns[n-1]
		s.freeConns = s.freeConns[:n-1]
	} else {
		sc = new(serverConn)
	}
	sc.Conn, sc.br, sc.remote = conn, getReqReader(conn), conn.RemoteAddr().String()
	sc.state.Store(connBusy)
	s.conns[sc] = struct{}{}
	return sc
}

// closeConn stops tracking sc and puts it on the free list; its handler
// must not use it after.
func (s *Server) closeConn(sc *serverConn) {
	putReqReader(sc.br)
	s.connMu.Lock()
	defer s.connMu.Unlock()
	delete(s.conns, sc)
	sc.Conn, sc.br, sc.remote = nil, nil, ""
	s.freeConns = append(s.freeConns, sc)
}

// Close stops the listener and gracefully drains: idle kept connections
// end, connections mid-request are unblocked (their pending reads expire
// immediately) while in-flight compressions and response writes run to
// completion. It is safe to call more than once.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		if s.ln != nil {
			err = s.ln.Close()
		}
		// Expire pending request reads so idle connections cannot hold the
		// drain hostage for the read timeout; writes (responses in flight)
		// proceed untouched.
		s.connMu.Lock()
		for sc := range s.conns {
			_ = sc.SetReadDeadline(s.clock.Now())
		}
		s.connMu.Unlock()
		s.wg.Wait()
		// A build outlives a handler whose connection died under it.
		s.store.drain()
	})
	return err
}

// handle reads one request off sc and serves it.
func (s *Server) handle(sc *serverConn) (err error) {
	bw := getConnWriter(sc)
	defer putConnWriter(bw)
	defer bw.Flush()

	span := s.tracer.Start("serve")
	span.SetAttr("remote", sc.remote)
	defer func() {
		span.Fail(err)
		span.Finish()
	}()

	readStart := time.Now()
	req, err := sc.reqs.read(sc.br, s.store)
	if err != nil {
		return err
	}
	span.Phase("read-request", "", readStart, time.Since(readStart), 0)
	span.SetReqID(req.ReqID)
	s.metrics.requests.Add(1)
	// The full response must drain within writeTimeout.
	if err := sc.SetWriteDeadline(s.clock.Now().Add(s.cfg.writeTimeout)); err != nil {
		return err
	}
	switch req.Op {
	case opList:
		span.SetAttr("op", "list")
		return s.handleList(bw)
	case opGet, opGetEx:
		span.SetAttr("op", "get")
		span.SetAttr("name", req.Name)
		span.SetAttr("scheme", req.Scheme.String())
		span.SetAttr("mode", req.Mode.String())
		if s.log.Enabled(context.Background(), slog.LevelDebug) { // or its attrs are built for nobody
			s.log.Debug("get", slog.String("name", req.Name), slog.String("mode", req.Mode.String()),
				slog.Uint64("offset", req.Offset), obs.ReqIDAttr(req.ReqID))
		}
		return s.handleGet(bw, req, span)
	default:
		return writeGetHeader(bw, getHeader{Status: statusBadReq})
	}
}

// handleList writes the catalogue, minus names longer than maxNameLen:
// Register accepts them but no request frame can carry one, and listing
// one fails every client's List (past 65,535 bytes it wraps the u16 length).
func (s *Server) handleList(bw *bufio.Writer) error {
	names := s.Files()
	kept := names[:0]
	for _, n := range names {
		if len(n) <= maxNameLen {
			kept = append(kept, n)
		}
	}
	names = kept
	var hdr [5]byte
	hdr[0] = statusOK
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(names)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	for _, n := range names {
		var n16 [2]byte
		binary.BigEndian.PutUint16(n16[:], uint16(len(n)))
		if _, err := bw.Write(n16[:]); err != nil {
			return err
		}
		if _, err := bw.Write([]byte(n)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (s *Server) handleGet(bw *bufio.Writer, req request, span *obs.Span) error {
	f, ok := s.store.file(req.Name)
	if !ok {
		return writeGetHeader(bw, getHeader{Status: statusNotFound})
	}

	a, err := s.artifactFor(req, f.content, f.gen, span)
	if err != nil {
		return err
	}
	// Resume: grant the largest block boundary at or below the requested
	// offset and serve from there. Block boundaries are fixed by the raw
	// chunking, whatever the scheme or mode and before any block exists, so
	// a client that verified N raw bytes on a previous attempt is handed
	// exactly the blocks it is missing.
	n := len(a.blocks)
	start, granted := n, uint64(len(f.content))
	if req.Offset < granted {
		start = int(req.Offset / selective.BlockSize)
		granted = uint64(start) * selective.BlockSize
	}
	writeStart := time.Now()
	var wrote int64
	var waited time.Duration
	for i := start; ; i++ {
		if a.f != nil {
			// Block i, or past the last block the build's verdict: an end
			// frame is only ever written for an artifact that completed.
			waitStart := time.Now()
			err := a.f.await(i)
			waited += time.Since(waitStart)
			if err != nil {
				return err
			}
		}
		if i == start {
			// The header waits for the first block and rides in its flush:
			// a client's time to first byte is time to first payload, and a
			// build that fails before producing anything to send has not
			// yet promised statusOK.
			if err := writeGetHeader(bw, getHeader{
				Status:  statusOK,
				RawSize: uint64(len(f.content)),
				Scheme:  req.Scheme,
				Offset:  granted,
			}); err != nil {
				return err
			}
		}
		if i == n {
			break
		}
		b := a.blocks[i]
		if b.Compressed {
			s.metrics.bytesCompressed.Add(int64(len(b.Payload)))
		} else {
			s.metrics.bytesRaw.Add(int64(len(b.Payload)))
		}
		if err := WriteBlock(bw, b); err != nil {
			return err
		}
		wrote += int64(BlockHeaderLen + len(b.Payload))
		// Flush per block so the client's pipeline can overlap
		// decompression with the next block's arrival.
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	err = WriteEnd(bw, f.crc)
	if err == nil {
		err = bw.Flush()
	}
	// The loop's time is waiting for the builder plus writing, the end
	// frame and its flush included; the two phases are laid end to end,
	// the waits first, so together they cover that interval on the span.
	if a.f != nil {
		span.Phase("block-wait", "", writeStart, waited, 0)
	}
	span.Phase("write-blocks", "", writeStart.Add(waited), time.Since(writeStart)-waited, wrote)
	return err
}

// selectivePolicy is the decider a selective request runs under and its
// fingerprint. An opGetEx request that declared attributes gets a
// per-request policy derivation when the decider supports it (the dynamic
// decider folds the deadline class into its fingerprint, so blocks shaped
// by a stricter deadline never serve a laxer request from cache, or vice
// versa; the advisory budget stays out of it). deciderFor inverts it.
func (s *Server) selectivePolicy(class uint8, budgetMJ uint32) (selective.Decider, string) {
	if class != 0 || budgetMJ != 0 {
		if pr, ok := s.decider.(interface {
			ForRequest(uint8, uint32) (selective.Decider, string)
		}); ok {
			return pr.ForRequest(class, budgetMJ)
		}
	}
	return s.decider, s.deciderFP
}

// artifactFor opens the block stream for a request. ModeRaw chunks
// without compression; every compressing mode goes through the cache and
// singleflight, so concurrent load amortises the server-side compute.
func (s *Server) artifactFor(req request, content []byte, gen uint64, span *obs.Span) (artifact, error) {
	var d selective.Decider
	var fp string
	switch req.Mode {
	case ModeRaw:
		return artifact{blocks: chunkRaw(content)}, nil
	case ModePrecompressed, ModeOnDemand:
		// Both serve the whole file compressed; they share artifacts. The
		// modes differ only in when the paper's testbed pays the compute,
		// which the cache now amortises either way.
		d, fp = selective.AlwaysCompress{}, fpAlways
	case ModeSelective:
		d, fp = s.selectivePolicy(req.Class, req.BudgetMJ)
	default:
		return artifact{}, fmt.Errorf("%w: mode %d", ErrProtocol, int(req.Mode))
	}
	key := ArtifactKey{Name: req.Name, Gen: gen, Scheme: req.Scheme, FP: fp}
	return s.openArtifact(key, content, d, span, true)
}
