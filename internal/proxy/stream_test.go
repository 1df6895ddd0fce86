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
	"slices"
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
	srv.store.mu.Lock()
	inAir := len(srv.store.flights)
	srv.store.mu.Unlock()
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
	srv.onCompress = func(ArtifactKey) {
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
		follower := NewClient(addr)
		defer follower.Close()
		got, _, err := follower.Fetch("f", codec.Gzip, ModeOnDemand)
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

// stubCodec "compresses" a block to its CRC and length, and a short block
// (a file's tail) to that padded out to the block's own length, which
// Equation 6 sends raw and always-compress does not: deterministic, cheap
// under -race, and never decoded — the model check compares wire bytes, it
// does not decompress them.
type stubCodec struct{ scheme codec.Scheme }

func (c stubCodec) Scheme() codec.Scheme { return c.scheme }
func (c stubCodec) Compress(raw []byte) ([]byte, error) {
	out := binary.BigEndian.AppendUint32(nil, checksum.CRC32(raw))
	out = binary.BigEndian.AppendUint32(out, uint32(len(raw)))
	if len(raw) < selective.BlockSize {
		out = append(out, make([]byte, len(raw)-len(out))...)
	}
	return out, nil
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

// encodedKey is what decides a model artifact's blocks: which of the rig's
// contents, under which mode.
type encodedKey struct {
	content int
	mode    Mode
}

// steppedBuild lets the driver advance one running build block by block.
type steppedBuild struct {
	key    modelKey
	start  chan struct{} // closed when the driver lets the build at its blocks
	steps  chan struct{} // one token per block the build may compress
	failAt int           // the block whose compression fails, or -1
	parked int           // the block the codec waits for a token on, or -1 (under the rig's mu)
	over   bool          // the driver has seen the build finish (under the rig's mu)
	failed bool          // the codec has failed (the build's goroutine only)
}

// modelFlight is a build the model knows to be running.
type modelFlight struct {
	f         *flight
	started   bool
	published int
	failAt    int // as steppedBuild's; a block taken from a sibling never fails
	failed    bool
}

// modelRig drives a real Server (no sockets: readers call handleGet into a
// buffer) through a schedule, alongside the sequential model below.
type modelRig struct {
	t        *testing.T
	srv      *Server
	contents [2][]byte
	content  map[uint64]int // which of contents a generation serves (the driver's)
	nBlocks  int
	budget   int64
	decider  selective.Decider // the selective mode's, and its fingerprint
	fp       string
	encoded  map[encodedKey][]selective.Block

	mu      sync.Mutex
	running *steppedBuild    // the build holding the one worker slot
	built   map[modelKey]int // builds the server actually ran
	failAt  map[modelKey]int // the block a key's next build is to fail at
}

// newModelRig builds the rig for a seed; every other seed's cache holds one
// artifact or the other of a generation but not both, so admissions evict.
func newModelRig(t *testing.T, seed int64) *modelRig {
	const nBlocks = 4
	r := &modelRig{t: t, nBlocks: nBlocks, content: map[uint64]int{}, built: map[modelKey]int{}, failAt: map[modelKey]int{},
		decider: selective.PaperDecider{}, fp: deciderFingerprint(selective.PaperDecider{})}
	r.encoded = map[encodedKey][]selective.Block{}
	rng := rand.New(rand.NewSource(seed))
	for i := range r.contents {
		r.contents[i] = make([]byte, (nBlocks-1)*selective.BlockSize+4321)
		rng.Read(r.contents[i])
		// Six random bits a byte: random enough that no two contents or
		// blocks match, skewed enough that the selective encoder's probe
		// passes every block to the stepped codec.
		for j := range r.contents[i] {
			r.contents[i][j] &= 0x3f
		}
		// Block j starts with byte j, so the codec can tell which block
		// it was handed.
		for j := 0; j < nBlocks; j++ {
			r.contents[i][j*selective.BlockSize] = byte(j)
		}
	}
	r.budget = 64 << 20
	if seed%2 == 0 {
		r.budget = max(r.charge(modelKey{1, ModeOnDemand}, true), r.charge(modelKey{1, ModeSelective}, true))
	}
	r.srv = NewServerWith(r.decider, Config{Workers: 1, CacheBytes: r.budget})
	// One worker, so builds run one at a time and onCompress — which fires
	// once a build holds the slot — names the one newCodec is about to
	// serve. The build then waits for the driver to start it: which of its
	// blocks a sibling lends it is decided against the cache as the model
	// has it then.
	r.srv.onCompress = func(k ArtifactKey) {
		mode := ModeSelective
		if k.FP == fpAlways {
			mode = ModeOnDemand
		}
		key := modelKey{k.Gen, mode}
		b := &steppedBuild{key: key, start: make(chan struct{}), steps: make(chan struct{}, nBlocks), parked: -1}
		r.mu.Lock()
		b.failAt = r.failAt[key]
		r.running = b
		r.built[key]++
		r.mu.Unlock()
		<-b.start
	}
	r.srv.newCodec = func(s codec.Scheme, level int) (codec.Codec, error) {
		if level != 0 {
			t.Errorf("a build asked for codec level %d: siblings lend blocks only while every build runs level 0", level)
		}
		r.mu.Lock()
		b := r.running
		r.mu.Unlock()
		return hookCodec{stubCodec{s}, func(raw []byte) error {
			if b.failed {
				return nil // the encoder still compresses the blocks after a failed one; no step is owed them
			}
			i := int(raw[0])
			r.mu.Lock()
			b.parked = i
			r.mu.Unlock()
			<-b.steps
			r.mu.Lock()
			b.parked = -1
			r.mu.Unlock()
			if b.failed = i == b.failAt; b.failed {
				return errInjectedBuild
			}
			return nil
		}}, nil
	}
	return r
}

// awaitRunning returns the build that holds the worker slot, once one the
// driver has not seen finish does. Which of several queued builds that is,
// the slot decides, not the model.
func (r *modelRig) awaitRunning() *steppedBuild {
	var b *steppedBuild
	waitFor(r.t, func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		b = r.running
		return b != nil && !b.over
	})
	return b
}

// lent reports whether f's blocks are offered to its siblings' builds.
func (r *modelRig) lent(k modelKey, f *flight) bool {
	r.srv.store.mu.Lock()
	defer r.srv.store.mu.Unlock()
	return slices.Contains(r.srv.store.lenders[siblingOf(r.artifactKey(k))], f)
}

func (r *modelRig) artifactKey(k modelKey) ArtifactKey {
	fp := r.fp
	if k.mode == ModeOnDemand {
		fp = fpAlways
	}
	return ArtifactKey{Name: "f", Gen: k.gen, Scheme: codec.Gzip, FP: fp}
}

// flightFor returns key's flight, or nil.
func (r *modelRig) flightFor(k modelKey) *flight {
	r.srv.store.mu.Lock()
	defer r.srv.store.mu.Unlock()
	return r.srv.store.flights[r.artifactKey(k)]
}

// blocks is the sequential model of k's artifact: selective.Encode's, of
// the content k's generation serves (encoded once per content and mode).
func (r *modelRig) blocks(k modelKey) []selective.Block {
	memo := encodedKey{r.content[k.gen], k.mode}
	if b, ok := r.encoded[memo]; ok {
		return b
	}
	var d selective.Decider = selective.AlwaysCompress{}
	if k.mode == ModeSelective {
		d = r.decider
	}
	enc, err := selective.Encode(r.contents[memo.content], stubCodec{codec.Gzip}, d)
	if err != nil {
		r.t.Fatal(err)
	}
	for i, b := range enc.Blocks {
		if b.Probed {
			r.t.Fatalf("the probe sent block %d raw: the stepped codec would never see it", i)
		}
	}
	if last := enc.Blocks[r.nBlocks-1]; last.Compressed != (k.mode == ModeOnDemand) {
		r.t.Fatalf("the tail block of a %v artifact is compressed %v: the model wants Equation 6 alone to send it raw", k.mode, last.Compressed)
	}
	r.encoded[memo] = enc.Blocks
	return enc.Blocks
}

// charge is what caching k costs the byte budget: a local build is charged
// too with the codec outputs it holds for its siblings beyond its blocks —
// the tail's, which Equation 6 sent raw.
func (r *modelRig) charge(k modelKey, local bool) int64 {
	n := entrySize(r.artifactKey(k), r.blocks(k))
	if last := r.blocks(k)[r.nBlocks-1]; local && !last.Compressed {
		out, _ := stubCodec{codec.Gzip}.Compress(last.Payload)
		n += int64(len(out))
	}
	return n
}

// expectedWire is the sequential model of one response: the header for the
// granted offset, then the model's blocks from there, then the end frame —
// or, read off a build that failed at block failAt (-1: none did), the
// blocks before that one and no end frame, and not even a header when the
// first block owed was never made.
func (r *modelRig) expectedWire(k modelKey, offset uint64, failAt int) []byte {
	content, blocks := r.contents[r.content[k.gen]], r.blocks(k)
	var w bytes.Buffer
	start, granted := 0, uint64(0)
	for start < len(blocks) && granted+uint64(blocks[start].RawLen) <= offset {
		granted += uint64(blocks[start].RawLen)
		start++
	}
	if failAt >= 0 {
		if start >= failAt {
			return nil
		}
		blocks = blocks[:failAt]
	}
	_ = writeGetHeader(&w, getHeader{Status: statusOK, RawSize: uint64(len(content)), Scheme: codec.Gzip, Offset: granted})
	for _, b := range blocks[start:] {
		_ = WriteBlock(&w, b)
	}
	if failAt < 0 {
		_ = WriteEnd(&w, crcOf(content))
	}
	return w.Bytes()
}

// modelReader is one request in flight.
type modelReader struct {
	key    modelKey
	offset uint64
	flight *modelFlight // the build it reads behind; nil for a hit
	out    bytes.Buffer
	err    error
	done   chan struct{}
}

// TestGrowingArtifactModel runs seeded schedules — readers attaching with
// the build at any block, resuming from offsets on and off block
// boundaries, a Register or a peer's SyncGeneration mid-build, a peer's
// AdmitArtifact of the current generation and of one left behind, a build
// whose codec fails at a block, a cache too small for two artifacts, Close
// mid-build — against a model that is trivially right: whatever the
// interleaving, every reader's bytes are the header, selective.Encode's
// blocks from its granted boundary, and the end frame, or exactly the
// blocks made before its build failed; a key is built once per generation
// and once more per failure; a build owes the codec a step only for the
// blocks that no sibling built here and still cached ran the codec on, and
// takes the rest from it, a block that sibling's decider sent raw
// included; the cache is the LRU the schedule implies, within its budget —
// a local build charged with the codec outputs it holds beyond its blocks —
// holding no generation its file has left and no key that is also in the
// air, and lends exactly the artifacts built here; the
// Stats counters are the ones the schedule implies; and no goroutine
// outlives Close.
func TestGrowingArtifactModel(t *testing.T) {
	var reused int64
	for seed := int64(1); seed <= 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { reused += runModelSchedule(t, seed) })
	}
	t.Logf("%d blocks taken from siblings across the seeds", reused)
	if reused == 0 {
		t.Error("no schedule had a build take a block from a sibling")
	}
}

// runModelSchedule runs one seed's schedule and returns how many blocks its
// builds took from siblings.
func runModelSchedule(t *testing.T, seed int64) int64 {
	before := runtime.NumGoroutine()
	r := newModelRig(t, seed)
	rng := rand.New(rand.NewSource(seed * 7919))
	size := uint64(len(r.contents[0]))
	offsets := []uint64{0, 0, 1, selective.BlockSize - 1, selective.BlockSize, selective.BlockSize + 77,
		2 * selective.BlockSize, size - 1, size}
	modes := []Mode{ModeOnDemand, ModeSelective}

	// The model: the file's generation and which content it has, the cached
	// artifacts most recently used first, the builds running and how far
	// along, and the counters so far.
	gen, cur := uint64(0), 0
	var lru []modelKey
	builtHere := map[modelKey]bool{} // a cached artifact's provenance: a local build, not a peer's copy
	building := map[modelKey]*modelFlight{}
	wantBuilt := map[modelKey]int{}
	var hits, misses, coalesced, compressions, evictions, reused int64
	var readers []*modelReader

	uncache := func(drop func(modelKey) bool) {
		kept := lru[:0]
		for _, k := range lru {
			if !drop(k) {
				kept = append(kept, k)
			}
		}
		lru = kept
	}
	charged := func() (n int64) {
		for _, k := range lru {
			n += r.charge(k, builtHere[k])
		}
		return n
	}
	// toFront makes k the most recently used artifact, evicting from the
	// other end whatever the budget cannot hold beside it.
	toFront := func(k modelKey) {
		uncache(func(o modelKey) bool { return o == k })
		for charged()+r.charge(k, builtHere[k]) > r.budget {
			lru = lru[:len(lru)-1]
			evictions++
		}
		lru = append([]modelKey{k}, lru...)
	}
	// admitModel is the cache's one admission rule.
	admitModel := func(k modelKey, local bool) {
		if k.gen >= gen && r.charge(k, local) <= r.budget {
			builtHere[k] = local
			toFront(k)
		}
	}
	// lends is the take/wait/claim rule: k's build takes what the codec made
	// of each block, instead of running it, from the other mode's artifact
	// of its generation when that is cached and was built here — its codec
	// ran on every block, whether its decider kept the output (the tail,
	// under Equation 6, it did not). With one worker no build ever waits: a
	// sibling in the air is queued behind k's build, holding no claim, and
	// a build that ran finished first. So k's build claims the rest.
	lends := func(k modelKey) bool {
		s := modelKey{k.gen, ModeOnDemand + ModeSelective - k.mode}
		return slices.Contains(lru, s) && builtHere[s]
	}
	// check holds the store to the model and to its own invariants; every
	// operation ends with the server where the model says it is, and here.
	check := func(after string) {
		t.Helper()
		st := r.srv.store
		st.mu.Lock()
		defer st.mu.Unlock()
		for k := range st.entries {
			if k.Gen < st.files[k.Name].gen {
				t.Fatalf("after %s: generation %d of %q is cached, the file is at %d", after, k.Gen, k.Name, st.files[k.Name].gen)
			}
			if _, ok := st.flights[k]; ok {
				t.Fatalf("after %s: %+v is finished and in the air", after, k)
			}
		}
		// The lenders are the local builds: every flight (the rig has no
		// peer) and every cached artifact the model says was built here.
		lenders := len(st.flights)
		for k, f := range st.flights {
			if !slices.Contains(st.lenders[siblingOf(k)], f) {
				t.Fatalf("after %s: the build of %+v lends no block", after, k)
			}
		}
		for el, i := st.lru.Front(), 0; el != nil && i < len(lru); el, i = el.Next(), i+1 {
			e := el.Value.(*entry)
			if (e.lender != nil) != builtHere[lru[i]] {
				t.Fatalf("after %s: %+v lends blocks %v, the model says built here %v", after, e.key, e.lender != nil, builtHere[lru[i]])
			}
			if e.lender != nil {
				lenders++
				if !slices.Contains(st.lenders[siblingOf(e.key)], e.lender) {
					t.Fatalf("after %s: cached %+v is missing from its siblings' lenders", after, e.key)
				}
			}
		}
		for _, fs := range st.lenders {
			lenders -= len(fs)
		}
		if lenders != 0 {
			t.Fatalf("after %s: the lender index is off by %d from the local builds", after, -lenders)
		}
		if n, b := st.occupancy(); n != int64(len(st.entries)) || b != st.bytes {
			t.Fatalf("after %s: the gauges read %d entries and %d bytes, the store holds %d and %d", after, n, b, len(st.entries), st.bytes)
		}
		if st.bytes > r.budget || st.bytes != charged() || len(st.entries) != len(lru) {
			t.Fatalf("after %s: %d entries charged %d bytes of %d; the model has %d charged %d",
				after, len(st.entries), st.bytes, r.budget, len(lru), charged())
		}
		for el, i := st.lru.Front(), 0; el != nil; el, i = el.Next(), i+1 {
			if key := el.Value.(*entry).key; key != r.artifactKey(lru[i]) {
				t.Fatalf("after %s: entry %d from the front is %+v, the model's is %+v", after, i, key, lru[i])
			}
		}
		if len(st.flights) != len(building) {
			t.Fatalf("after %s: %d flights in the air, the model has %d", after, len(st.flights), len(building))
		}
	}

	bump := func(to uint64) {
		gen = to
		r.content[gen] = cur
		uncache(func(k modelKey) bool { return k.gen < gen })
	}
	register := func() {
		cur ^= 1
		r.srv.Register("f", r.contents[cur])
		bump(gen + 1)
	}
	// syncGen is a peer's invalidation: behind, level with or ahead of the
	// file's generation, and only the last moves anything.
	syncGen := func() {
		to := gen - 1 + uint64(rng.Intn(4))
		r.srv.SyncGeneration("f", to)
		if to > gen {
			bump(to)
		}
	}
	// admit is a peer's push: of the current generation it is cached, unless
	// the key is in the air, where it is left to the build's own admission;
	// of a generation left behind it is refused.
	admit := func(stale bool) {
		k := modelKey{gen, modes[rng.Intn(2)]}
		blocks := r.blocks(k)
		if stale {
			k.gen--
		}
		r.srv.AdmitArtifact(r.artifactKey(k), blocks)
		if building[k] == nil {
			admitModel(k, false)
		}
	}
	attach := func() {
		k := modelKey{gen, modes[rng.Intn(2)]}
		rd := &modelReader{key: k, offset: offsets[rng.Intn(len(offsets))], flight: building[k], done: make(chan struct{})}
		readers = append(readers, rd)
		isCached := false
		for _, o := range lru {
			isCached = isCached || o == k
		}
		leads := !isCached && rd.flight == nil
		if leads {
			rd.flight = &modelFlight{failAt: -1}
			if rng.Intn(5) == 0 {
				rd.flight.failAt = rng.Intn(r.nBlocks)
			}
			r.mu.Lock()
			r.failAt[k] = rd.flight.failAt
			r.mu.Unlock()
		}
		go func() {
			defer close(rd.done)
			bw := bufio.NewWriter(&rd.out)
			rd.err = r.srv.handleGet(bw, request{Op: opGet, Name: "f", Scheme: codec.Gzip, Mode: k.mode, Offset: rd.offset}, nil)
			_ = bw.Flush()
		}()
		// Wait until the request is where the model says it is, so the next
		// operation cannot overtake it.
		switch {
		case isCached:
			hits++
			toFront(k)
			waitFor(t, func() bool { return r.srv.Stats().CacheHits == hits })
		case !leads:
			misses++
			coalesced++
			waitFor(t, func() bool { return r.srv.Stats().Coalesced == coalesced })
		default:
			misses++
			compressions++
			wantBuilt[k]++
			building[k] = rd.flight
			waitFor(t, func() bool { f := r.flightFor(k); return f != nil && r.lent(k, f) })
			rd.flight.f = r.flightFor(k)
		}
	}
	// step starts the build holding the worker slot or lets it compress
	// one more block; then the build takes what blocks its siblings lend
	// it, and step waits for it to publish them and park on the codec — or,
	// past the last block or one that fails, for the flight to finish.
	step := func() {
		b := r.awaitRunning()
		k := b.key
		fl := building[k]
		if !fl.started {
			fl.started = true
			close(b.start)
		} else {
			fl.failed = fl.published == fl.failAt
			b.steps <- struct{}{}
			if !fl.failed {
				fl.published++
			}
		}
		for !fl.failed && fl.published < r.nBlocks && lends(k) {
			fl.published++
			reused++
		}
		if !fl.failed && fl.published < r.nBlocks {
			waitFor(t, func() bool {
				r.mu.Lock()
				parked := b.parked
				r.mu.Unlock()
				fl.f.mu.Lock()
				defer fl.f.mu.Unlock()
				return fl.f.ready == fl.published && parked == fl.published
			})
			return
		}
		waitFor(t, fl.f.done)
		r.mu.Lock()
		b.over = true
		r.mu.Unlock()
		delete(building, k)
		if !fl.failed {
			// Refused, by the same rule, to a build a bump overtook.
			admitModel(k, true)
		}
	}

	register()
	for op := 0; op < 40; op++ {
		switch p := rng.Intn(20); {
		case p < 7:
			attach()
			check("an attach")
		case p < 15:
			if len(building) > 0 {
				step()
				check("a step")
			}
		case p < 16:
			register()
			check("a Register")
		case p < 17:
			syncGen()
			check("a SyncGeneration")
		case p < 19:
			admit(false)
			check("an AdmitArtifact of the current generation")
		default:
			admit(true)
			check("an AdmitArtifact of a stale generation")
		}
	}
	// Close mid-build: with exactly one build in the air (a queued one
	// might or might not get its slot before it sees the close), part-way
	// through when the schedule left one there.
	for len(building) > 1 {
		step()
	}
	if len(building) == 1 {
		r.awaitRunning()
	}
	closed := make(chan struct{})
	go func() {
		_ = r.srv.Close()
		close(closed)
	}()
	if len(building) == 1 {
		select {
		case <-closed:
			t.Fatal("Close returned with a build still in the air")
		case <-time.After(10 * time.Millisecond):
		}
		for len(building) > 0 {
			step()
		}
	}
	<-closed
	check("Close")

	for i, rd := range readers {
		<-rd.done
		failAt, wantErr := -1, error(nil)
		if rd.flight != nil && rd.flight.failed {
			failAt, wantErr = rd.flight.failAt, errInjectedBuild
		}
		if !errors.Is(rd.err, wantErr) {
			t.Errorf("reader %d (%+v offset %d): err = %v, want %v", i, rd.key, rd.offset, rd.err, wantErr)
		} else if !bytes.Equal(rd.out.Bytes(), r.expectedWire(rd.key, rd.offset, failAt)) {
			t.Errorf("reader %d (%+v offset %d, build failing at %d): wire bytes differ from the sequential model's", i, rd.key, rd.offset, failAt)
		}
	}
	for k, n := range r.built {
		if n != wantBuilt[k] {
			t.Errorf("%+v compressed %d times, the schedule implies %d", k, n, wantBuilt[k])
		}
	}
	if got := r.srv.metrics.reused.Value(); got != reused {
		t.Errorf("builds took %d blocks from siblings, the schedule implies %d", got, reused)
	}
	st := r.srv.Stats()
	if st.CacheHits != hits || st.CacheMisses != misses || st.Coalesced != coalesced || st.Compressions != compressions ||
		st.Evictions != evictions || st.CacheRejects != 0 {
		t.Errorf("counters hits=%d misses=%d coalesced=%d compressions=%d evictions=%d rejects=%d; the schedule implies %d, %d, %d, %d, %d, 0",
			st.CacheHits, st.CacheMisses, st.Coalesced, st.Compressions, st.Evictions, st.CacheRejects,
			hits, misses, coalesced, compressions, evictions)
	}
	if _, err := r.srv.openArtifact(ArtifactKey{Name: "late"}, nil, selective.AlwaysCompress{}, nil, false); !errors.Is(err, ErrClosing) {
		t.Errorf("a flight started after Close: err = %v, want ErrClosing", err)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
	return reused
}
