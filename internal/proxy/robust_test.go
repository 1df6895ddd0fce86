package proxy

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/selective"
	"repro/internal/workload"
)

// dialRaw opens a raw connection to the test server.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func robustServer(t *testing.T) (string, *Server) {
	t.Helper()
	srv := NewServer(nil)
	srv.Register("f.txt", workload.Generate(workload.ClassMail, 20_000, 1))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr, srv
}

// TestServerSurvivesGarbageRequests: random bytes must not wedge or crash
// the server; a subsequent well-formed fetch must still succeed.
func TestServerSurvivesGarbageRequests(t *testing.T) {
	addr, _ := robustServer(t)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 20; i++ {
		conn := dialRaw(t, addr)
		junk := make([]byte, rng.Intn(200))
		rng.Read(junk)
		_, _ = conn.Write(junk)
		conn.Close()
	}
	cli := NewClient(addr)
	got, _, err := cli.Fetch("f.txt", codec.Gzip, ModeSelective)
	if err != nil {
		t.Fatalf("fetch after garbage: %v", err)
	}
	if len(got) != 20_000 {
		t.Fatalf("got %d bytes", len(got))
	}
}

// TestServerHandlesEarlyDisconnect: clients that vanish mid-request must
// not leak goroutines that block Close.
func TestServerHandlesEarlyDisconnect(t *testing.T) {
	addr, srv := robustServer(t)
	for i := 0; i < 10; i++ {
		conn := dialRaw(t, addr)
		// Send only part of a valid request header.
		_, _ = conn.Write([]byte("PXY1"))
		conn.Close()
	}
	done := make(chan struct{})
	go func() {
		_ = srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server Close blocked after early disconnects")
	}
}

// TestServerRejectsBadOp: an unknown opcode gets a bad-request status, not
// a hang.
func TestServerRejectsBadOp(t *testing.T) {
	addr, _ := robustServer(t)
	conn := dialRaw(t, addr)
	if err := writeRequest(conn, request{Op: 0x7F, Name: "f.txt"}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	hdr, err := readGetHeader(br)
	if err != nil {
		t.Fatalf("no response to bad op: %v", err)
	}
	if hdr.Status != statusBadReq {
		t.Errorf("status %d, want bad request", hdr.Status)
	}
}

// TestServerRejectsOverlongName: a name-length field beyond the cap is
// refused without reading the body.
func TestServerRejectsOverlongName(t *testing.T) {
	addr, _ := robustServer(t)
	conn := dialRaw(t, addr)
	// Hand-craft a request with nameLen = 0xFFFF.
	frame := append([]byte(protoMagic), opGet, 0xFF, 0xFF)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection rather than wait for 64k of
	// name bytes.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 16)
	_, err := conn.Read(buf)
	if err == nil {
		// A response (likely none) or EOF both fine; a timeout is not.
		return
	}
	if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("server hung on overlong name")
	}
}

// TestClientRejectsOversizedBlockFrame: a malicious server advertising a
// giant block payload must be refused client-side.
func TestClientRejectsOversizedBlockFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readRequest(bufio.NewReader(conn)); err != nil {
			return
		}
		_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: 100, Scheme: codec.Gzip})
		// Block frame with a payload length over the cap.
		var hdr [BlockHeaderLen]byte
		hdr[0] = blockFlagCompressed
		hdr[5] = 0xFF
		hdr[6] = 0xFF
		hdr[7] = 0xFF
		hdr[8] = 0xFF
		_, _ = conn.Write(hdr[:])
		_, _ = io.Copy(io.Discard, conn)
	}()
	cli := NewClient(ln.Addr().String())
	cli.Timeout = 10 * time.Second
	if _, _, err := cli.Fetch("x", codec.Gzip, ModeRaw); err == nil {
		t.Fatal("oversized block frame accepted")
	}
}

// TestClientDetectsWrongCRC: a server returning corrupted content is
// caught by the end-to-end CRC.
func TestClientDetectsWrongCRC(t *testing.T) {
	content := []byte("the true content")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readRequest(bufio.NewReader(conn)); err != nil {
			return
		}
		_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: uint64(len(content)), Scheme: codec.Gzip})
		_ = WriteBlock(conn, selective.Block{RawLen: len(content), Payload: content})
		_ = WriteEnd(conn, 0xDEADBEEF) // wrong CRC
	}()
	cli := NewClient(ln.Addr().String())
	if _, _, err := cli.Fetch("x", codec.Gzip, ModeRaw); err == nil {
		t.Fatal("wrong CRC accepted")
	}
}

// TestPipelineOrderingPreserved: with many blocks the decompressor must
// reassemble them in order even though it runs concurrently.
func TestPipelineOrderingPreserved(t *testing.T) {
	srv := NewServer(nil)
	// Sequence-stamped content so any reordering is detectable.
	var buf bytes.Buffer
	for i := 0; i < 300_000/8; i++ {
		_, _ = buf.WriteString(string(rune('a' + i%26)))
		_, _ = buf.WriteString("1234567")
	}
	content := buf.Bytes()
	srv.Register("seq", content)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := NewClient(addr)
	for i := 0; i < 5; i++ {
		got, _, err := cli.Fetch("seq", codec.Zlib, ModeOnDemand)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("pipeline reordered content")
		}
	}
}
