package proxy

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checksum"
	"repro/internal/codec"
	"repro/internal/proxy/faultconn"
	"repro/internal/selective"
	"repro/internal/workload"
)

// Tests for the growing artifact: a miss is served block by block while it
// is still being compressed, so these pin what its readers may see when a
// build fails, stalls behind a slow reader, or races everything else.

// hookCodec runs before on each raw block ahead of the real Compress: the
// seam the tests use to hold a build at a block, or to fail it there.
type hookCodec struct {
	codec.Codec
	before func(raw []byte) error
}

func (c hookCodec) Compress(raw []byte) ([]byte, error) {
	if err := c.before(raw); err != nil {
		return nil, err
	}
	return c.Codec.Compress(raw)
}

// taggedContent returns n-and-a-bit blocks of content whose block i starts
// with byte i, so a hookCodec can tell which block it was handed.
func taggedContent(class workload.Class, blocks int, seed uint64) []byte {
	content := workload.Generate(class, blocks*selective.BlockSize-70_000, seed)
	for i := 0; i < blocks; i++ {
		content[i*selective.BlockSize] = byte(i)
	}
	return content
}

var errInjectedBuild = errors.New("injected build failure")

// rawGet sends one GET on a fresh connection and reads the response until
// it ends, reporting the header (or why there was none), the verified
// blocks received and whether an end frame closed the stream.
func rawGet(addr string, req request) (hdr getHeader, hdrErr error, blocks int, ended bool) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return hdr, err, 0, false
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeRequest(conn, req); err != nil {
		return hdr, err, 0, false
	}
	br := bufio.NewReader(conn)
	if hdr, hdrErr = readGetHeader(br); hdrErr != nil {
		return
	}
	for {
		b, _, ok, err := ReadBlock(br)
		if err != nil {
			return
		}
		if !ok {
			return hdr, nil, blocks, true
		}
		codec.PutBuf(b.Payload)
		blocks++
	}
}

// TestFailedBuildLeavesNothingBehind fails a 5-block build at block 3 with
// the leader and two followers reading behind it. Every one of them must
// get a connection that closes without an end frame — never a stream that
// ends cleanly short — nothing may be cached, and the flight must be
// forgotten: the next request compresses afresh, and a retrying client
// completes byte-exact by resuming from the prefix it verified.
func TestFailedBuildLeavesNothingBehind(t *testing.T) {
	const nBlocks, failAt = 5, 3
	content := taggedContent(workload.ClassHTML, nBlocks, 11)
	srv := NewServerWith(nil, Config{Workers: 1})
	srv.Register("f", content)

	var failures atomic.Int32 // builds still to fail
	attached := make(chan struct{})
	srv.newCodec = func(s codec.Scheme, level int) (codec.Codec, error) {
		c, err := codec.New(s, level)
		return hookCodec{c, func(raw []byte) error {
			if raw[0] == 0 && failures.Load() > 0 {
				<-attached // hold block 0 until every reader is on the flight
			}
			if raw[0] == failAt && failures.Add(-1) >= 0 {
				return errInjectedBuild
			}
			return nil
		}}, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	failures.Store(1)
	type outcome struct {
		hdr    getHeader
		hdrErr error
		blocks int
		ended  bool
	}
	results := make(chan outcome, 3)
	for i := 0; i < 3; i++ {
		go func() {
			var o outcome
			o.hdr, o.hdrErr, o.blocks, o.ended = rawGet(addr, request{Op: opGet, Name: "f", Scheme: codec.Gzip, Mode: ModeOnDemand})
			results <- o
		}()
	}
	waitFor(t, func() bool { return srv.Stats().Coalesced == 2 })
	close(attached)
	for i := 0; i < 3; i++ {
		o := <-results
		switch {
		case o.hdrErr != nil:
			t.Errorf("reader %d: no header (%v); blocks 0..%d were built and owed to it", i, o.hdrErr, failAt-1)
		case o.ended:
			t.Errorf("reader %d: stream ended with an end frame after %d of %d blocks", i, o.blocks, nBlocks)
		case o.hdr.Status != statusOK || o.blocks != failAt:
			t.Errorf("reader %d: status %d and %d blocks, want the %d built before the failure", i, o.hdr.Status, o.blocks, failAt)
		}
	}
	waitServed(t, srv, 3)
	st := srv.Stats()
	if st.Compressions != 1 || st.CacheEntries != 0 || st.Errors != 3 {
		t.Errorf("after the failed build: %d compressions, %d cache entries, %d errored requests; want 1, 0, 3",
			st.Compressions, st.CacheEntries, st.Errors)
	}
	srv.flights.mu.Lock()
	inAir := len(srv.flights.m)
	srv.flights.mu.Unlock()
	if inAir != 0 {
		t.Errorf("%d flights still registered after the failure", inAir)
	}

	// A retrying client rides through a second failure: attempt 1 verifies
	// blocks 0..2 and is cut off, attempt 2 starts a fresh flight (the
	// failed one left nothing to join or hit) and is granted the boundary.
	failures.Store(1)
	cli := retryingClient(addr)
	got, fst, err := cli.Fetch("f", codec.Gzip, ModeOnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("resumed fetch is not byte-exact")
	}
	if fst.Attempts != 2 || fst.ResumedBytes != failAt*selective.BlockSize {
		t.Errorf("attempts=%d resumed=%d, want 2 attempts resuming at %d", fst.Attempts, fst.ResumedBytes, failAt*selective.BlockSize)
	}
	if st := srv.Stats(); st.Compressions != 3 || st.CacheHits != 0 || st.CacheEntries != 1 {
		t.Errorf("after the retried fetch: %d compressions, %d hits, %d cache entries; want 3, 0, 1",
			st.Compressions, st.CacheHits, st.CacheEntries)
	}
}

// TestClosingWhileQueuedWritesNoHeader: a build caught by Close while it
// waits for a worker slot fails before it has produced anything, so its
// request must be answered with a closed connection, not a header.
func TestClosingWhileQueuedWritesNoHeader(t *testing.T) {
	srv := NewServerWith(nil, Config{Workers: 1})
	srv.Register("f", workload.Generate(workload.ClassMail, 50_000, 1))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.workerSem <- struct{}{} // the only slot is taken
	done := make(chan error, 1)
	go func() {
		_, hdrErr, _, _ := rawGet(addr, request{Op: opGet, Name: "f", Scheme: codec.Gzip, Mode: ModeOnDemand})
		done <- hdrErr
	}()
	waitFor(t, func() bool { return srv.Stats().CompressQueueDepth == 1 })
	closed := make(chan struct{})
	go func() {
		_ = srv.Close()
		close(closed)
	}()
	if hdrErr := <-done; hdrErr == nil {
		t.Fatal("a request whose build never got a worker slot was sent a header")
	}
	<-closed
	if st := srv.Stats(); st.Compressions != 0 || st.CompressQueueDepth != 0 {
		t.Errorf("%d compressions, queue depth %d after Close; want 0, 0", st.Compressions, st.CompressQueueDepth)
	}
}

// TestSlowReaderDoesNotHoldTheBuild: the leader's handheld goes silent
// right after the header, with its socket buffers full. The build must not
// notice — a follower for the same key completes, the queue-depth gauge
// returns to zero and the worker slot is free while the stalled connection
// is still open — and what finally reaps that connection is the write timeout.
func TestSlowReaderDoesNotHoldTheBuild(t *testing.T) {
	const writeTimeout = 4 * time.Second
	// Incompressible, so the response overflows the shrunken socket
	// buffers many times over.
	content := make([]byte, 500_000)
	rand.New(rand.NewSource(5)).Read(content)
	srv := NewServerWith(nil, Config{
		Workers:      1,
		writeTimeout: writeTimeout,
		WrapConn: func(c net.Conn) net.Conn {
			_ = c.(*net.TCPConn).SetWriteBuffer(4 << 10)
			return c
		},
	})
	srv.Register("f", content)
	leading := make(chan struct{})
	following := make(chan struct{})
	srv.onCompress = func(cacheKey) {
		close(leading)
		<-following
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stalled := NewClient(addr)
	stalled.Timeout = time.Minute
	var stalledConn net.Conn
	stalled.Dial = func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		_ = c.(*net.TCPConn).SetReadBuffer(4 << 10)
		stalledConn = faultconn.Plan{StallReadsAfter: GetHeaderLen}.Wrap(c, 1)
		return stalledConn, nil
	}
	start := time.Now()
	stalledDone := make(chan error, 1)
	go func() {
		_, _, err := stalled.Fetch("f", codec.Gzip, ModeOnDemand)
		stalledDone <- err
	}()
	<-leading

	followerDone := make(chan error, 1)
	go func() {
		got, _, err := NewClient(addr).Fetch("f", codec.Gzip, ModeOnDemand)
		if err == nil && !bytes.Equal(got, content) {
			err = errors.New("follower's content corrupted")
		}
		followerDone <- err
	}()
	waitFor(t, func() bool { return srv.Stats().Coalesced == 1 })
	close(following)

	select {
	case err := <-followerDone:
		if err != nil {
			t.Fatalf("follower behind a stalled leader: %v", err)
		}
	case <-time.After(writeTimeout * 3 / 4):
		t.Fatal("follower did not complete while the leader's connection was stalled")
	}
	waitFor(t, func() bool {
		st := srv.Stats()
		return st.CompressQueueDepth == 0 && len(srv.workerSem) == 0 && st.ConnsActive == 1
	})
	if st := srv.Stats(); st.Compressions != 1 || st.CacheEntries != 1 {
		t.Fatalf("with the build done and the stalled conn still open: %d compressions, %d cache entries; want 1, 1",
			st.Compressions, st.CacheEntries)
	}
	if since := time.Since(start); since >= writeTimeout {
		t.Fatalf("build took %v to let go of the stalled leader; the write timeout is %v", since, writeTimeout)
	}

	waitFor(t, func() bool { return srv.Stats().ConnsActive == 0 })
	if reaped := time.Since(start); reaped < writeTimeout {
		t.Errorf("stalled connection reaped after %v, before its %v write timeout", reaped, writeTimeout)
	}
	if st := srv.Stats(); st.Errors != 1 {
		t.Errorf("%d errored requests, want the one stalled connection", st.Errors)
	}
	_ = stalledConn.Close() // releases the client's stalled read
	if err := <-stalledDone; err == nil {
		t.Error("stalled client's fetch succeeded")
	}
}

// --- model check -----------------------------------------------------------

// stubCodec "compresses" a block to its CRC and length: deterministic,
// cheap under -race, and never decoded — the model check compares wire
// bytes, it does not decompress them.
type stubCodec struct{ scheme codec.Scheme }

func (c stubCodec) Scheme() codec.Scheme { return c.scheme }
func (c stubCodec) Compress(raw []byte) ([]byte, error) {
	out := binary.BigEndian.AppendUint32(nil, checksum.CRC32(raw))
	return binary.BigEndian.AppendUint32(out, uint32(len(raw))), nil
}
func (stubCodec) Decompress([]byte, int) ([]byte, error) {
	return nil, errors.New("stub codec cannot decompress")
}
func (stubCodec) DecompressAppend(_, _ []byte, _ int) ([]byte, error) {
	return nil, errors.New("stub codec cannot decompress")
}

// modelKey is an artifact as the model sees it: all requests use one file
// and one scheme, so generation and mode tell artifacts apart.
type modelKey struct {
	gen  uint64
	mode Mode
}

// steppedBuild lets the driver advance one running build block by block.
type steppedBuild struct {
	key   modelKey
	steps chan struct{} // one token per block the build may compress
	done  int           // blocks the driver has released
}

// modelRig drives a real Server (no sockets: readers call handleGet into a
// buffer) through a schedule, alongside the sequential model below.
type modelRig struct {
	t        *testing.T
	srv      *Server
	contents [2][]byte // generation g serves contents[g%2]
	nBlocks  int

	mu      sync.Mutex
	running *steppedBuild    // the build holding the one worker slot
	built   map[modelKey]int // builds the server actually ran
}

func newModelRig(t *testing.T, seed int64) *modelRig {
	const nBlocks = 4
	r := &modelRig{t: t, nBlocks: nBlocks, srv: NewServerWith(nil, Config{Workers: 1}), built: map[modelKey]int{}}
	rng := rand.New(rand.NewSource(seed))
	for i := range r.contents {
		r.contents[i] = make([]byte, (nBlocks-1)*selective.BlockSize+4321)
		rng.Read(r.contents[i])
	}
	// One worker, so builds run one at a time and onCompress — which fires
	// once a build holds the slot — names the one newCodec is about to
	// serve.
	r.srv.onCompress = func(k cacheKey) {
		mode := ModeSelective
		if k.fp == fpAlways {
			mode = ModeOnDemand
		}
		r.mu.Lock()
		r.running = &steppedBuild{key: modelKey{k.gen, mode}, steps: make(chan struct{}, nBlocks)}
		r.built[r.running.key]++
		r.mu.Unlock()
	}
	r.srv.newCodec = func(s codec.Scheme, _ int) (codec.Codec, error) {
		r.mu.Lock()
		b := r.running
		r.mu.Unlock()
		return hookCodec{stubCodec{s}, func([]byte) error {
			<-b.steps
			return nil
		}}, nil
	}
	return r
}

// awaitRunning returns the build that holds the worker slot, once one with
// blocks still to compress does. Which of several queued builds that is,
// the slot decides, not the model.
func (r *modelRig) awaitRunning() *steppedBuild {
	var b *steppedBuild
	waitFor(r.t, func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		b = r.running
		return b != nil && b.done < r.nBlocks
	})
	return b
}

// flightFor returns key's flight, or nil.
func (r *modelRig) flightFor(k modelKey) *flight {
	fp := r.srv.deciderFP
	if k.mode == ModeOnDemand {
		fp = fpAlways
	}
	r.srv.flights.mu.Lock()
	defer r.srv.flights.mu.Unlock()
	return r.srv.flights.m[cacheKey{name: "f", gen: k.gen, scheme: codec.Gzip, fp: fp}]
}

// expectedWire is the sequential model of one response: the header for the
// granted offset, then selective.Encode's blocks from there, then the end
// frame.
func (r *modelRig) expectedWire(k modelKey, offset uint64) []byte {
	content := r.contents[k.gen%2]
	var d selective.Decider = selective.AlwaysCompress{}
	if k.mode == ModeSelective {
		d = r.srv.decider
	}
	enc, err := selective.Encode(content, stubCodec{codec.Gzip}, d)
	if err != nil {
		r.t.Fatal(err)
	}
	var w bytes.Buffer
	start, granted := 0, uint64(0)
	for start < len(enc.Blocks) && granted+uint64(enc.Blocks[start].RawLen) <= offset {
		granted += uint64(enc.Blocks[start].RawLen)
		start++
	}
	_ = writeGetHeader(&w, getHeader{Status: statusOK, RawSize: uint64(len(content)), Scheme: codec.Gzip, Offset: granted})
	for _, b := range enc.Blocks[start:] {
		_ = WriteBlock(&w, b)
	}
	_ = WriteEnd(&w, crcOf(content))
	return w.Bytes()
}

// modelReader is one request in flight.
type modelReader struct {
	key    modelKey
	offset uint64
	out    bytes.Buffer
	err    error
	done   chan struct{}
}

// TestGrowingArtifactModel runs seeded schedules — readers attaching with
// the build at any block, resuming from offsets on and off block
// boundaries, a Register mid-build, Close mid-build — against a model that
// is trivially right: whatever the interleaving, every reader's bytes are
// the header, selective.Encode's blocks from its granted boundary, and the
// end frame; a key is compressed at most once per generation; the Stats
// counters are the ones the schedule implies; and no goroutine outlives
// Close.
func TestGrowingArtifactModel(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runModelSchedule(t, seed) })
	}
}

func runModelSchedule(t *testing.T, seed int64) {
	before := runtime.NumGoroutine()
	r := newModelRig(t, seed)
	rng := rand.New(rand.NewSource(seed * 7919))
	size := uint64(len(r.contents[0]))
	offsets := []uint64{0, 0, 1, selective.BlockSize - 1, selective.BlockSize, selective.BlockSize + 77,
		2 * selective.BlockSize, size - 1, size}

	// The model: which artifacts are cached, which are in the air and how
	// far along, and the counters so far.
	gen := uint64(0)
	cached := map[modelKey]bool{}
	inAir := map[modelKey]int{} // blocks published
	var hits, misses, coalesced, compressions int64
	var readers []*modelReader

	register := func() {
		gen++
		r.srv.Register("f", r.contents[gen%2])
	}
	attach := func() {
		k := modelKey{gen, []Mode{ModeOnDemand, ModeSelective}[rng.Intn(2)]}
		rd := &modelReader{key: k, offset: offsets[rng.Intn(len(offsets))], done: make(chan struct{})}
		readers = append(readers, rd)
		go func() {
			defer close(rd.done)
			bw := bufio.NewWriter(&rd.out)
			rd.err = r.srv.handleGet(bw, request{Op: opGet, Name: "f", Scheme: codec.Gzip, Mode: k.mode, Offset: rd.offset}, nil)
			_ = bw.Flush()
		}()
		// Wait until the request is where the model says it is, so the next
		// operation cannot overtake it.
		_, flying := inAir[k]
		switch {
		case cached[k]:
			hits++
			waitFor(t, func() bool { return r.srv.Stats().CacheHits == hits })
		case flying:
			misses++
			coalesced++
			waitFor(t, func() bool { return r.srv.Stats().Coalesced == coalesced })
		default:
			misses++
			compressions++
			inAir[k] = 0
			waitFor(t, func() bool { return r.flightFor(k) != nil })
		}
	}
	// step lets the build holding the worker slot compress one more block
	// and waits for the block to be published — or, for the last one, for
	// the flight to finish.
	step := func() {
		b := r.awaitRunning()
		k := b.key
		b.steps <- struct{}{}
		r.mu.Lock()
		b.done++
		r.mu.Unlock()
		inAir[k]++
		if inAir[k] < r.nBlocks {
			f := r.flightFor(k)
			waitFor(t, func() bool {
				f.mu.Lock()
				defer f.mu.Unlock()
				return f.ready == inAir[k]
			})
			return
		}
		waitFor(t, func() bool { return r.flightFor(k) == nil })
		delete(inAir, k)
		// Admission is refused to a build a Register overtook.
		cached[k] = k.gen == gen
	}

	register()
	for op := 0; op < 30; op++ {
		switch p := rng.Intn(10); {
		case p < 4:
			attach()
		case p < 9:
			if len(inAir) > 0 {
				step()
			}
		default:
			register()
		}
	}
	// Close mid-build: with exactly one build in the air (a queued one
	// might or might not get its slot before it sees the close), part-way
	// through when the schedule left one there.
	for len(inAir) > 1 {
		step()
	}
	if len(inAir) == 1 {
		r.awaitRunning()
	}
	closed := make(chan struct{})
	go func() {
		_ = r.srv.Close()
		close(closed)
	}()
	if len(inAir) == 1 {
		select {
		case <-closed:
			t.Fatal("Close returned with a build still in the air")
		case <-time.After(10 * time.Millisecond):
		}
		for len(inAir) > 0 {
			step()
		}
	}
	<-closed

	for i, rd := range readers {
		<-rd.done
		if rd.err != nil {
			t.Errorf("reader %d (%+v offset %d): %v", i, rd.key, rd.offset, rd.err)
		} else if !bytes.Equal(rd.out.Bytes(), r.expectedWire(rd.key, rd.offset)) {
			t.Errorf("reader %d (%+v offset %d): wire bytes differ from the sequential model's", i, rd.key, rd.offset)
		}
	}
	for k, n := range r.built {
		if n > 1 {
			t.Errorf("%+v compressed %d times", k, n)
		}
	}
	st := r.srv.Stats()
	if st.CacheHits != hits || st.CacheMisses != misses || st.Coalesced != coalesced || st.Compressions != compressions {
		t.Errorf("counters hits=%d misses=%d coalesced=%d compressions=%d; the schedule implies %d, %d, %d, %d",
			st.CacheHits, st.CacheMisses, st.Coalesced, st.Compressions, hits, misses, coalesced, compressions)
	}
	if _, err := r.srv.openArtifact(cacheKey{name: "late"}, nil, codec.Gzip, selective.AlwaysCompress{}, nil, false); !errors.Is(err, ErrClosing) {
		t.Errorf("a flight started after Close: err = %v, want ErrClosing", err)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}
