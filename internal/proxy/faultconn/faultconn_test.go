package faultconn

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// memConn is a deterministic in-memory net.Conn: reads come from r,
// writes land in w, and writeCalls counts underlying Write invocations.
type memConn struct {
	r          *bytes.Reader
	w          bytes.Buffer
	closed     bool
	writeCalls int
}

func (c *memConn) Read(b []byte) (int, error)  { return c.r.Read(b) }
func (c *memConn) Write(b []byte) (int, error) { c.writeCalls++; return c.w.Write(b) }
func (c *memConn) Close() error                { c.closed = true; return nil }

func (c *memConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

// TestWriteBitFlipDeterministic: the same (seed, id) must corrupt the same
// bit run after run, the corruption must be exactly one bit, and the
// caller's buffer must stay untouched.
func TestWriteBitFlipDeterministic(t *testing.T) {
	plan := Plan{Seed: 7, BitFlipProb: 1}
	data := payload(1024)
	orig := append([]byte(nil), data...)

	run := func() []byte {
		mc := &memConn{r: bytes.NewReader(nil)}
		fc := plan.Wrap(mc, 3)
		if n, err := fc.Write(data); err != nil || n != len(data) {
			t.Fatalf("write: n=%d err=%v", n, err)
		}
		return mc.w.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and id produced different corruption")
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("caller's buffer was mutated")
	}
	diff := 0
	for i := range a {
		for bit := 0; bit < 8; bit++ {
			if (a[i]^orig[i])&(1<<bit) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("flipped %d bits, want exactly 1", diff)
	}
}

// TestDifferentConnIDsDiverge: distinct connection ids under one seed must
// draw distinct fault streams.
func TestDifferentConnIDsDiverge(t *testing.T) {
	plan := Plan{Seed: 7, BitFlipProb: 1}
	data := payload(4096)
	out := func(id int64) []byte {
		mc := &memConn{r: bytes.NewReader(nil)}
		fc := plan.Wrap(mc, id)
		_, _ = fc.Write(data)
		return mc.w.Bytes()
	}
	if bytes.Equal(out(1), out(2)) {
		t.Fatal("conn ids 1 and 2 flipped the same bit; fault streams are correlated")
	}
}

// TestReadBitFlip: the read path corrupts arriving bytes the same way.
func TestReadBitFlip(t *testing.T) {
	data := payload(512)
	mc := &memConn{r: bytes.NewReader(data)}
	fc := Plan{Seed: 11, BitFlipProb: 1}.Wrap(mc, 1)
	got := make([]byte, len(data))
	n, err := fc.Read(got)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got[:n], data[:n]) {
		t.Fatal("read-path bit flip never fired at probability 1")
	}
}

// TestFragmentDeliversEverything: fragmentation must split the underlying
// writes without losing or corrupting a byte.
func TestFragmentDeliversEverything(t *testing.T) {
	data := payload(2048)
	mc := &memConn{r: bytes.NewReader(nil)}
	fc := Plan{Seed: 5, FragmentProb: 1}.Wrap(mc, 1)
	n, err := fc.Write(data)
	if err != nil || n != len(data) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !bytes.Equal(mc.w.Bytes(), data) {
		t.Fatal("fragmented write corrupted data")
	}
	if mc.writeCalls != 2 {
		t.Fatalf("underlying writes = %d, want 2", mc.writeCalls)
	}
}

// TestResetKillsConnection: a reset surfaces ErrInjectedReset, closes the
// underlying conn, and poisons later operations.
func TestResetKillsConnection(t *testing.T) {
	mc := &memConn{r: bytes.NewReader(payload(10))}
	fc := Plan{Seed: 1, ResetProb: 1}.Wrap(mc, 1)
	if _, err := fc.Write(payload(10)); err != ErrInjectedReset {
		t.Fatalf("err = %v, want ErrInjectedReset", err)
	}
	if !mc.closed {
		t.Fatal("underlying conn not closed")
	}
	if _, err := fc.Read(make([]byte, 4)); err != ErrInjectedReset {
		t.Fatalf("post-reset read err = %v", err)
	}
}

// TestTruncateWritesPrefix: truncation delivers a strict prefix and then
// kills the connection with an error, never a silent short write.
func TestTruncateWritesPrefix(t *testing.T) {
	data := payload(1000)
	mc := &memConn{r: bytes.NewReader(nil)}
	fc := Plan{Seed: 3, TruncateProb: 1}.Wrap(mc, 1)
	n, err := fc.Write(data)
	if err == nil {
		t.Fatal("truncation must report an error")
	}
	if n >= len(data) {
		t.Fatalf("truncation delivered %d of %d bytes", n, len(data))
	}
	if !bytes.Equal(mc.w.Bytes(), data[:n]) {
		t.Fatal("delivered bytes are not a clean prefix")
	}
	if !mc.closed {
		t.Fatal("underlying conn not closed")
	}
}

// TestZeroPlanIsTransparent: an empty plan must return the conn unwrapped.
func TestZeroPlanIsTransparent(t *testing.T) {
	mc := &memConn{r: bytes.NewReader(nil)}
	if got := (Plan{Seed: 9}).Wrap(mc, 1); got != net.Conn(mc) {
		t.Fatal("zero plan wrapped the conn")
	}
}

// TestStallReadsAfter: reads pass until the threshold is crossed, then the
// connection goes silent — the next Read neither returns data nor fails
// until Close releases it — while the bytes stay unread underneath.
func TestStallReadsAfter(t *testing.T) {
	mc := &memConn{r: bytes.NewReader(payload(100))}
	fc := Plan{StallReadsAfter: 22}.Wrap(mc, 1)
	buf := make([]byte, 30)
	if n, err := fc.Read(buf); n != 30 || err != nil {
		t.Fatalf("read before the stall: n=%d err=%v", n, err)
	}
	released := make(chan error, 1)
	go func() {
		_, err := fc.Read(buf)
		released <- err
	}()
	select {
	case err := <-released:
		t.Fatalf("read past the threshold returned (%v), want it to block", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-released; err != ErrInjectedReset {
		t.Fatalf("stalled read released with %v, want ErrInjectedReset", err)
	}
	if mc.r.Len() != 70 {
		t.Fatalf("%d bytes left underneath, want 70: the stalled read consumed data", mc.r.Len())
	}
}
