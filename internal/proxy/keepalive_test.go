package proxy

// Kept connections: a client keeps one connection per server and sends its
// next request on it; the server serves requests on a connection until the
// client closes it, it sits idle past the read timeout, it is evicted at
// the connection cap, or the server drains. These tests hold both sides to
// the old peers they must still work with, and to the ways a kept
// connection ends.

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/selective"
	"repro/internal/workload"
)

// countingDial makes cli dial addr over TCP and counts its dials.
func countingDial(cli *Client, addr string) *atomic.Int64 {
	var dials atomic.Int64
	cli.Dial = func() (net.Conn, error) {
		dials.Add(1)
		return net.Dial("tcp", addr)
	}
	return &dials
}

// TestOneShotClientAgainstKeptServer: a client that dials, sends one
// request and closes — every client before connections were kept — is
// served in full, and its hang-up between requests is no server error.
func TestOneShotClientAgainstKeptServer(t *testing.T) {
	content := workload.Generate(workload.ClassXML, 300_000, 5)
	srv := NewServer(nil)
	srv.Register("f", content)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 2; i++ {
		hdr, hdrErr, blocks, ended := rawGet(addr, request{Op: opGet, Name: "f", Scheme: codec.Gzip, Mode: ModeOnDemand})
		if hdrErr != nil || hdr.Status != statusOK || !ended || blocks != selective.NumBlocks(len(content), selective.BlockSize) {
			t.Fatalf("one-shot fetch %d: status %d, %d blocks, ended %v, err %v", i, hdr.Status, blocks, ended, hdrErr)
		}
	}
	waitServed(t, srv, 2)
	if st := srv.Stats(); st.ConnsTotal != 2 || st.Requests != 2 || st.Errors != 0 {
		t.Errorf("two one-shot fetches: %d connections, %d requests, %d errors; want 2, 2, 0", st.ConnsTotal, st.Requests, st.Errors)
	}
}

// oneShotServer answers one GET per connection with content as a single
// raw block, then closes: the server every client before connections
// were kept talked to.
func oneShotServer(t *testing.T, content []byte) string {
	return maliciousServer(t, func(conn net.Conn) {
		if !consumeRequest(conn) {
			return
		}
		_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: uint64(len(content)), Scheme: codec.Gzip})
		_ = WriteBlock(conn, selective.Block{RawLen: len(content), Payload: content})
		_ = WriteEnd(conn, crcOf(content))
	})
}

// TestClientRedialsAfterOneShotServer: against a server that closes after
// every answer, each fetch after the first finds its kept connection dead
// before the header. It redials exactly once, and the fetch still counts
// one attempt.
func TestClientRedialsAfterOneShotServer(t *testing.T) {
	content := []byte("a file served by a server that closes after every answer")
	addr := oneShotServer(t, content)
	cli := hardenedClient(addr)
	defer cli.Close()
	dials := countingDial(cli, addr)
	for i := 1; i <= 4; i++ {
		got, st, err := cli.Fetch("x", codec.Gzip, ModeRaw)
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("fetch %d: err %v", i, err)
		}
		if st.Attempts != 1 {
			t.Errorf("fetch %d: %d attempts, want 1 (the redial is not an attempt)", i, st.Attempts)
		}
		if n := dials.Load(); n != int64(i) {
			t.Fatalf("after fetch %d: %d dials, want %d (one per fetch)", i, n, i)
		}
	}
}

// TestCloseDrainsIdleKeptConns: Close ends connections idle between
// requests at once, not after the read timeout; their ending is no error,
// and no handler goroutine outlives it.
func TestCloseDrainsIdleKeptConns(t *testing.T) {
	const clients, readTimeout = 8, 20 * time.Second
	before := runtime.NumGoroutine()
	srv := NewServerWith(nil, Config{readTimeout: readTimeout})
	srv.Register("f", workload.Generate(workload.ClassHTML, 20_000, 6))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clis := make([]*Client, clients)
	for i := range clis {
		clis[i] = NewClient(addr)
		if _, _, err := clis[i].Fetch("f", codec.Gzip, ModeOnDemand); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return srv.Stats().ConnsActive == clients })
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > readTimeout/10 {
		t.Errorf("Close took %v with %d idle kept connections; the read timeout is %v", took, clients, readTimeout)
	}
	if st := srv.Stats(); st.Errors != 0 || st.ConnsActive != 0 || st.Requests != clients {
		t.Errorf("after Close: %d errors, %d active connections, %d requests; want 0, 0, %d", st.Errors, st.ConnsActive, st.Requests, clients)
	}
	for _, cli := range clis {
		cli.Close()
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

// TestIdleConnEvictedAtCap: with every connection slot held by an idle
// kept connection, a new client is served, not shed: the server evicts an
// idle connection for it, and the evicted client redials on its next
// fetch without a failed attempt.
func TestIdleConnEvictedAtCap(t *testing.T) {
	const maxConns = 2
	content := workload.Generate(workload.ClassMail, 30_000, 7)
	srv := NewServerWith(nil, Config{MaxConns: maxConns})
	srv.Register("f", content)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clis := make([]*Client, maxConns+2)
	for i := range clis {
		clis[i] = NewClient(addr)
		defer clis[i].Close()
	}
	fetch := func(i int) {
		t.Helper()
		got, st, err := clis[i].Fetch("f", codec.Gzip, ModePrecompressed)
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("client %d: %v", i, err)
		}
		if st.Attempts != 1 {
			t.Errorf("client %d: %d attempts, want 1", i, st.Attempts)
		}
	}
	for i := 0; i < maxConns; i++ {
		fetch(i)
	}
	waitFor(t, func() bool { return srv.Stats().ConnsActive == maxConns })
	for i := maxConns; i < len(clis); i++ {
		fetch(i) // each one past the cap evicts an idle connection
	}
	for i := range clis {
		fetch(i) // the evicted redial, and evict in turn
	}
	if st := srv.Stats(); st.ConnsRejected != 0 {
		t.Errorf("%d connections shed with every slot idle, want 0", st.ConnsRejected)
	}
}

// keptServer answers GETs on a connection until the client hangs up, with
// the response respond writes: a server that would happily serve the
// next request on a connection the client should not have kept.
func keptServer(t *testing.T, respond func(net.Conn)) string {
	return maliciousServer(t, func(conn net.Conn) {
		for consumeRequest(conn) {
			respond(conn)
		}
	})
}

// TestFailedFetchDropsItsConn: a fetch that fails mid-body, or fails the
// content CRC, may have left its stream anywhere; the connection is
// closed, never kept for the next request.
func TestFailedFetchDropsItsConn(t *testing.T) {
	content := workload.Generate(workload.ClassHTML, 2*selective.BlockSize, 8)
	half := content[:selective.BlockSize]
	cases := map[string]func(net.Conn){
		"mid-body": func(conn net.Conn) {
			_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: uint64(len(content)), Scheme: codec.Gzip})
			_ = WriteBlock(conn, selective.Block{RawLen: len(half), Payload: half})
			var hdr [BlockHeaderLen]byte // the second block's frame, its payload CRC wrong
			binary.BigEndian.PutUint32(hdr[1:5], uint32(len(half)))
			binary.BigEndian.PutUint32(hdr[5:9], uint32(len(half)))
			binary.BigEndian.PutUint32(hdr[9:13], crcOf(half)^1)
			_, _ = conn.Write(hdr[:])
			_, _ = conn.Write(half)
			_ = WriteEnd(conn, crcOf(content))
		},
		"content-crc": func(conn net.Conn) {
			_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: uint64(len(half)), Scheme: codec.Gzip})
			_ = WriteBlock(conn, selective.Block{RawLen: len(half), Payload: half})
			_ = WriteEnd(conn, crcOf(half)^1)
		},
	}
	for name, respond := range cases {
		t.Run(name, func(t *testing.T) {
			addr := keptServer(t, respond)
			cli := hardenedClient(addr)
			defer cli.Close()
			dials := countingDial(cli, addr)
			for i := 1; i <= 3; i++ {
				if _, _, err := cli.Fetch("x", codec.Gzip, ModeRaw); err == nil {
					t.Fatalf("fetch %d succeeded", i)
				}
				if cli.idle != nil {
					t.Fatalf("fetch %d failed but kept its connection", i)
				}
				if n := dials.Load(); n != int64(i) {
					t.Fatalf("after %d failed fetches: %d dials, want one each", i, n)
				}
			}
		})
	}
	// The control: the same server's whole answers are kept and reused.
	addr := keptServer(t, func(conn net.Conn) {
		_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: uint64(len(half)), Scheme: codec.Gzip})
		_ = WriteBlock(conn, selective.Block{RawLen: len(half), Payload: half})
		_ = WriteEnd(conn, crcOf(half))
	})
	cli := hardenedClient(addr)
	defer cli.Close()
	dials := countingDial(cli, addr)
	for i := 0; i < 3; i++ {
		if _, _, err := cli.Fetch("x", codec.Gzip, ModeRaw); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 1 || cli.idle == nil {
		t.Errorf("three whole answers: %d dials, kept %v; want 1, true", n, cli.idle != nil)
	}
}

// TestKeptConnsAcrossGoroutines: one Client shared by goroutines keeps at
// most one idle connection; the others' connections close, and every
// fetch is served.
func TestKeptConnsAcrossGoroutines(t *testing.T) {
	content := workload.Generate(workload.ClassSource, 40_000, 9)
	srv := NewServer(nil)
	srv.Register("f", content)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(addr)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got, _, err := cli.Fetch("f", codec.Bzip2, ModeOnDemand); err != nil || !bytes.Equal(got, content) {
					t.Errorf("shared client: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool { return srv.Stats().ConnsActive == 1 })
	cli.Close()
	waitServed(t, srv, 20)
	if st := srv.Stats(); st.Errors != 0 {
		t.Errorf("%d server errors", st.Errors)
	}
}
