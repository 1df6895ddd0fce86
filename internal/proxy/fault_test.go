package proxy

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/proxy/faultconn"
	"repro/internal/selective"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// retryingClient returns a client tuned for a hostile link: generous retry
// budget, fast backoff so tests stay quick, and a hard per-attempt
// deadline so nothing can hang.
func retryingClient(addr string) *Client {
	cli := NewClient(addr)
	cli.Timeout = 10 * time.Second
	cli.MaxRetries = 40
	cli.RetryBaseDelay = time.Millisecond
	cli.RetryMaxDelay = 20 * time.Millisecond
	return cli
}

// TestFetchCompletesUnderFaults is the acceptance stress test: with a
// seeded fault plan injecting delays, fragmented writes, resets,
// truncations and bit-flips at a 1% per-operation rate on every server
// connection, the retrying/resuming client must complete every fetch with
// CRC-verified content, and the server must shut down without goroutine
// leaks. Run under -race by scripts/ci.sh.
func TestFetchCompletesUnderFaults(t *testing.T) {
	plan := faultconn.Plan{
		Seed:         42,
		DelayProb:    0.05,
		MaxDelay:     200 * time.Microsecond,
		FragmentProb: 0.20,
		ResetProb:    0.01,
		TruncateProb: 0.01,
		BitFlipProb:  0.01,
	}
	srv := NewServerWith(nil, Config{
		WrapConn:    plan.Wrapper(),
		readTimeout: 2 * time.Second,
	})
	files := map[string][]byte{
		"small.txt": workload.Generate(workload.ClassMail, 5_000, 1),
		"mid.xml":   workload.Generate(workload.ClassHTML, 300_000, 2),
		"big.bin":   workload.Generate(workload.ClassMail, 700_000, 3),
	}
	for name, content := range files {
		srv.Register(name, content)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	cli := retryingClient(addr)
	modes := []Mode{ModeRaw, ModeOnDemand, ModeSelective}
	fetches, retried := 0, 0
	for rep := 0; rep < 3; rep++ {
		for name, content := range files {
			for _, mode := range modes {
				got, stats, err := cli.Fetch(name, codec.Gzip, mode)
				if err != nil {
					t.Fatalf("rep %d %s %v: %v (attempts %d)", rep, name, mode, err, stats.Attempts)
				}
				if !bytes.Equal(got, content) {
					t.Fatalf("rep %d %s %v: content mismatch (%d vs %d bytes)", rep, name, mode, len(got), len(content))
				}
				fetches++
				if stats.Attempts > 1 {
					retried++
				}
			}
		}
	}
	if retried == 0 {
		t.Errorf("fault plan never fired across %d fetches; the test is not exercising retries", fetches)
	}
	t.Logf("%d fetches completed, %d needed retries", fetches, retried)

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Goroutine-leak check: allow the runtime a moment to settle.
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

// cutConn delivers only the first `budget` bytes written through it, then
// kills the connection — a deterministic mid-stream truncation.
type cutConn struct {
	net.Conn
	budget int
}

func (c *cutConn) Write(b []byte) (int, error) {
	if c.budget <= 0 {
		c.Conn.Close()
		return 0, faultconn.ErrInjectedReset
	}
	if len(b) > c.budget {
		n, _ := c.Conn.Write(b[:c.budget])
		c.budget = 0
		c.Conn.Close()
		return n, faultconn.ErrInjectedReset
	}
	c.budget -= len(b)
	return c.Conn.Write(b)
}

// TestFetchResumesAfterTruncation: the first connection dies mid-block 2;
// the retry must resume at the block boundary (128 000 raw bytes) rather
// than refetch from zero, and the assembled content must verify.
func TestFetchResumesAfterTruncation(t *testing.T) {
	content := workload.Generate(workload.ClassHTML, 400_000, 7)
	var conns atomic.Int64
	// Cut the first connection mid-way through the second block's payload;
	// later connections are untouched.
	cut := GetHeaderLen + BlockHeaderLen + 128_000 + BlockHeaderLen + 1_000
	srv := NewServerWith(nil, Config{
		WrapConn: func(conn net.Conn) net.Conn {
			if conns.Add(1) == 1 {
				return &cutConn{Conn: conn, budget: cut}
			}
			return conn
		},
	})
	srv.Register("f", content)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := retryingClient(addr)
	got, stats, err := cli.Fetch("f", codec.Gzip, ModeRaw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("resumed content mismatch")
	}
	if stats.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", stats.Attempts)
	}
	if stats.ResumedBytes != 128_000 {
		t.Errorf("resumed %d bytes, want 128000 (one verified block)", stats.ResumedBytes)
	}
	// Attempt 1 received the header and one full block (block 2's frame
	// died mid-payload, so it does not count); attempt 2 received a header,
	// the three remaining blocks, and the end frame. Nothing else.
	if want := 2*GetHeaderLen + 5*BlockHeaderLen + len(content); stats.WireBytes != want {
		t.Errorf("WireBytes = %d, want %d (only frames actually received)", stats.WireBytes, want)
	}
}

// TestEndFrameCorruptionPreservesResume: a bit-flip in the terminal
// frame's content-CRC field must read as transient link damage — the end
// frame carries a CRC over its own header — not as "the file changed", so
// the retry resumes from the fully verified prefix instead of starting
// over.
func TestEndFrameCorruptionPreservesResume(t *testing.T) {
	content := workload.Generate(workload.ClassHTML, 2_000, 11)
	const blockSize = 500
	var conns atomic.Int64
	addr := maliciousServer(t, func(conn net.Conn) {
		first := conns.Add(1) == 1
		req, err := readRequest(bufio.NewReader(conn))
		if err != nil {
			return
		}
		if err := writeGetHeader(conn, getHeader{Status: statusOK, RawSize: uint64(len(content)), Scheme: codec.Gzip, Offset: req.Offset}); err != nil {
			return
		}
		for i := int(req.Offset); i < len(content); i += blockSize {
			end := i + blockSize
			if end > len(content) {
				end = len(content)
			}
			if err := WriteBlock(conn, selective.Block{RawLen: end - i, Payload: content[i:end]}); err != nil {
				return
			}
		}
		var endFrame bytes.Buffer
		_ = WriteEnd(&endFrame, crcOf(content))
		frame := endFrame.Bytes()
		if first {
			frame[2] ^= 0x40 // flip one bit inside the content-CRC field
		}
		_, _ = conn.Write(frame)
	})
	cli := retryingClient(addr)
	got, stats, err := cli.Fetch("f", codec.Gzip, ModeRaw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch")
	}
	if stats.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", stats.Attempts)
	}
	if stats.ResumedBytes != len(content) {
		t.Errorf("resumed %d bytes, want %d (every block was verified before the bad end frame)", stats.ResumedBytes, len(content))
	}
}

// busyServerFixture stands up a MaxConns=1 server on the virtual network
// and returns the clock, network and a ledger-aware client. The whole
// busy/retry dance — hog occupies the only slot, the fetch backs off,
// the hog's slot frees 100 virtual milliseconds later — runs in virtual
// time, so these tests are immune to host-scheduler stalls that used to
// make the real-time versions flaky.
func busyServerFixture(t *testing.T) (*simnet.Clock, *simnet.Network, *Server, *Client) {
	return busyServerFixtureWrapped(t, nil)
}

// busyServerFixtureWrapped is busyServerFixture with Config.WrapConn set.
func busyServerFixtureWrapped(t *testing.T, wrap func(net.Conn) net.Conn) (*simnet.Clock, *simnet.Network, *Server, *Client) {
	t.Helper()
	clock := simnet.NewClock()
	nw := simnet.NewNetwork(clock, simnet.Link{BytesPerSec: 1e6, Latency: time.Millisecond})
	ln, err := nw.Listen("proxy")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(nil, Config{MaxConns: 1, Clock: clock, WrapConn: wrap})
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	cli := NewClient("proxy")
	cli.Clock = clock
	cli.Dial = func() (net.Conn, error) { return nw.Dial("proxy") }
	cli.Timeout = 10 * time.Second
	cli.MaxRetries = 40
	cli.RetryBaseDelay = 10 * time.Millisecond
	cli.RetryMaxDelay = 50 * time.Millisecond
	return clock, nw, srv, cli
}

// hogSlot (called from inside the clock ledger) occupies the server's
// single connection slot with a silent connection and schedules its
// release 100 virtual milliseconds out — the point of the tests is that
// the retrying client rides through. It must run in the same Clock.Run
// as the retrying call: were it in its own Run, the clock would race to
// the release instant the moment that Run's ledger emptied, and the
// retry path under test would never see a busy server.
func hogSlot(t *testing.T, clock *simnet.Clock, nw *simnet.Network) {
	t.Helper()
	hog, err := nw.Dial("proxy")
	if err != nil {
		t.Error(err)
		return
	}
	clock.Go(func() {
		clock.Sleep(100 * time.Millisecond)
		hog.Close()
	})
}

// TestFetchRetriesBusy: the ErrBusy contract ("safe to retry") is
// honored — a fetch that lands on a saturated server succeeds once the
// slot frees up. Runs entirely in virtual time: the backoff sleeps and
// the hog's 100 ms occupancy advance the simnet clock, not the wall.
func TestFetchRetriesBusy(t *testing.T) {
	content := workload.Generate(workload.ClassMail, 10_000, 9)
	clock, nw, srv, cli := busyServerFixture(t)
	srv.Register("f", content)

	var got []byte
	var stats FetchStats
	clock.Run(func() {
		hogSlot(t, clock, nw)
		var err error
		got, stats, err = cli.Fetch("f", codec.Gzip, ModeSelective)
		if err != nil {
			t.Errorf("fetch through busy server: %v", err)
		}
	})
	if t.Failed() {
		return
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch")
	}
	if stats.Attempts < 2 {
		t.Errorf("attempts = %d, want ≥ 2 (first should hit ErrBusy)", stats.Attempts)
	}
}

// stallAfterClose is a connection whose Close returns late in host time:
// a handler goroutine the host stops running right after it has closed its
// connection, which on the virtual testbed is the moment the clock lets go
// of it.
type stallAfterClose struct{ net.Conn }

func (c stallAfterClose) Close() error {
	err := c.Conn.Close()
	time.Sleep(20 * time.Millisecond)
	return err
}

// TestBusySlotFreedWhileTheClockHoldsTheHandler: a handler gives its
// connection slot back before it closes the connection. Once it has closed
// it the virtual clock no longer waits for it, and a client can retry —
// and be refused — as many times as fit into however long the host leaves
// the handler unscheduled; the other order failed TestFetchRetriesBusy once
// in some thousands of runs, and fails here every time.
func TestBusySlotFreedWhileTheClockHoldsTheHandler(t *testing.T) {
	clock, nw, srv, cli := busyServerFixtureWrapped(t, func(c net.Conn) net.Conn { return stallAfterClose{c} })
	srv.Register("f", []byte("x"))
	clock.Run(func() {
		hogSlot(t, clock, nw)
		if _, err := cli.List(); err != nil {
			t.Errorf("list through busy server: %v", err)
		}
	})
}

// TestListRetriesBusy: List honors the same retry contract, also in
// virtual time.
func TestListRetriesBusy(t *testing.T) {
	clock, nw, srv, cli := busyServerFixture(t)
	srv.Register("f", []byte("x"))

	var names []string
	clock.Run(func() {
		hogSlot(t, clock, nw)
		var err error
		names, err = cli.List()
		if err != nil {
			t.Errorf("list through busy server: %v", err)
		}
	})
	if t.Failed() {
		return
	}
	if len(names) != 1 || names[0] != "f" {
		t.Fatalf("names = %v", names)
	}
}
