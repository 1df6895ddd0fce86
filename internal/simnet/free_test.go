package simnet

import (
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// connected dials a fresh listener and returns both ends of the
// connection. The caller is left holding the accepted end's handoff token,
// so it may block on either end from outside the ledger, as a server's
// handler goroutine does; closing the accepted end gives the token back.
func connected(t *testing.T, link Link) (c *Clock, dialer, accepted net.Conn) {
	t.Helper()
	c = NewClock()
	nw := NewNetwork(c, link)
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	acc := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		// The request arrives one latency into the dial. Holding the
		// handoff token, wait out the dialer's round trip, or the clock
		// could not reach the end of it.
		c.Sleep(link.Latency)
		acc <- conn
	}()
	waitAcceptorParked(t, c, ln)
	c.Run(func() {
		if dialer, err = nw.Dial("srv"); err != nil {
			t.Error(err)
		}
	})
	accepted = <-acc
	if dialer == nil || accepted == nil {
		t.FailNow()
	}
	return c, dialer, accepted
}

// A paced write and the peer's read of it, on a warm connection, allocate
// nothing: the payload rides a recycled segment, its arrival a recycled
// notice, and both parks recycled waiters.
func TestSimnetRoundTripAllocs(t *testing.T) {
	_, dialer, accepted := connected(t, Link{BytesPerSec: 1e6, Latency: time.Millisecond, JitterFrac: 0.1, Seed: 1})
	payload := make([]byte, 3000)
	got := make([]byte, len(payload))
	roundTrip := func() {
		if _, err := accepted.Write(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(dialer, got); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		roundTrip()
	}
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
		t.Errorf("a warm write and its read: %v allocations, want 0", n)
	}
	dialer.Close()
	accepted.Close()
}

// Every segment a write takes comes back once its connection is done with
// it: drained by a read (whole or in pieces), left unread in a socket that
// closes, or delivered into a socket that has already closed.
func TestSegmentsComeBack(t *testing.T) {
	c, dialer, accepted := connected(t, Link{BytesPerSec: 1e6, Latency: time.Millisecond})
	msg := make([]byte, 1500)
	if _, err := accepted.Write(msg); err != nil {
		t.Fatal(err)
	}
	// Read it in pieces: the segment stays held until the last byte.
	var part [1000]byte
	if _, err := io.ReadFull(dialer, part[:]); err != nil {
		t.Fatal(err)
	}
	if held, _ := c.Segments(); held != 1 {
		t.Fatalf("after a partial read: %d segments held, want 1", held)
	}
	if _, err := io.ReadFull(dialer, part[:500]); err != nil {
		t.Fatal(err)
	}
	if held, free := c.Segments(); held != 0 || free != 1 {
		t.Fatalf("after the whole read: %d held, %d free, want 0 and 1", held, free)
	}
	// Two writes land and sit unread; the reader closes.
	for i := 0; i < 2; i++ {
		if _, err := accepted.Write(msg); err != nil {
			t.Fatal(err)
		}
	}
	c.Sleep(10 * time.Millisecond)
	if held, _ := c.Segments(); held != 2 {
		t.Fatalf("two unread writes: %d segments held, want 2", held)
	}
	dialer.Close()
	if held, free := c.Segments(); held != 0 || free != 2 {
		t.Fatalf("after the reader closed: %d held, %d free, want 0 and 2", held, free)
	}
	// A write still in flight when the reader closes lands in a closed
	// socket. The write fails once the close marker reaches the writer,
	// but its segment is already on the way.
	_, dialer2, accepted2 := connected(t, Link{BytesPerSec: 1e6, Latency: 50 * time.Millisecond})
	c2 := dialer2.(*endpoint).c
	dialer2.Close()
	accepted2.Write(msg)
	c2.Sleep(time.Second)
	if held, free := c2.Segments(); held != 0 || free != 1 {
		t.Fatalf("delivered into a closed socket: %d held, %d free, want 0 and 1", held, free)
	}
	accepted.Close()
	accepted2.Close()
}

// A timeout of an earlier park never wakes a later one. A read parks with
// a deadline and is woken by data, which cancels its deadline's timeout
// and puts the read's waiter back on the free list. The same goroutine
// then sleeps past that deadline and reads the endpoint again: had the
// timeout stayed queued while the waiter was reused, it would end the
// sleep early.
func TestStaleTimeoutNeverWakesLaterPark(t *testing.T) {
	c, dialer, accepted := connected(t, Link{Latency: time.Millisecond})
	start := c.Elapsed()
	if err := dialer.SetReadDeadline(c.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	c.Go(func() {
		c.Sleep(10 * time.Millisecond)
		accepted.Write([]byte("x"))
		c.Sleep(time.Second)
		accepted.Write([]byte("y"))
	})
	var b [1]byte
	if _, err := dialer.Read(b[:]); err != nil {
		t.Fatal(err)
	}
	woke := c.Elapsed() - start
	dialer.SetReadDeadline(time.Time{})
	c.Sleep(200 * time.Millisecond)
	if got := c.Elapsed() - start - woke; got != 200*time.Millisecond {
		t.Errorf("a 200ms sleep after the read ended after %v", got)
	}
	if _, err := dialer.Read(b[:]); err != nil || b[0] != 'y' {
		t.Errorf("second read: %q, %v", b[:], err)
	}
	if got := c.Elapsed() - start; got < time.Second {
		t.Errorf("second read returned at %v, before the second write", got)
	}
	dialer.Close()
	accepted.Close()
}

// A read woken by data before its deadline cancels the deadline's timeout:
// its waiter is back on the free list as soon as the read returns, and no
// event of it is left in the queue. The clock owes the deadline its time
// all the same: once it comes to rest it stands at the deadline, as it did
// when the timeout stayed queued and fired into nothing.
func TestWokenReadFreesItsWaiter(t *testing.T) {
	c, dialer, accepted := connected(t, Link{Latency: time.Millisecond})
	deadline := c.Elapsed() + 100*time.Millisecond
	if err := dialer.SetReadDeadline(c.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	read := make(chan error, 1)
	c.Go(func() {
		var b [1]byte
		_, err := dialer.Read(b[:])
		read <- err
	})
	// The caller holds the accepted end's token, so the clock stands still
	// while the reader parks; find its waiter.
	ep := dialer.(*endpoint)
	var w *waiter
	for w == nil {
		c.mu.Lock()
		w = ep.rwait
		c.mu.Unlock()
		runtime.Gosched()
	}
	if _, err := accepted.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Sleep(10 * time.Millisecond) // the byte lands 1ms in and wakes the read
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	free, pending := slices.Contains(c.waiters, w), c.kern.Pending()
	c.mu.Unlock()
	if !free || pending != 0 {
		t.Errorf("after the read: its waiter free %v, %d events queued; want true and 0", free, pending)
	}
	dialer.Close()
	accepted.Close()
	c.WaitIdle()
	if got := c.Elapsed(); got != deadline {
		t.Errorf("the clock came to rest at %v, want the read deadline %v", got, deadline)
	}
}

// Reset refuses a clock that is in use — a goroutine busy or parked on it,
// a segment held unread, an event queued — and takes one that is not back
// to time zero with its free lists.
func TestResetRefusesAClockInUse(t *testing.T) {
	refused := func(c *Clock, what, why string) {
		t.Helper()
		err := c.Reset()
		if err == nil {
			t.Fatalf("Reset of a clock with %s succeeded", what)
		}
		if !strings.Contains(err.Error(), why) {
			t.Fatalf("Reset of a clock with %s: %v, want it to say %q", what, err, why)
		}
	}
	// The caller holds the accepted end's handoff token: busy.
	c, dialer, accepted := connected(t, Link{BytesPerSec: 1e6, Latency: time.Millisecond})
	refused(c, "a busy goroutine", "1 busy")
	if _, err := accepted.Write(make([]byte, 1500)); err != nil {
		t.Fatal(err)
	}
	// Giving the token back runs the clock on: the bytes land unread.
	accepted.Close()
	refused(c, "a segment held unread", "0 busy, 0 parked, 1 segments held")
	// A close from outside the ledger queues its marker and runs nothing.
	dialer.Close()
	refused(c, "an event queued", "1 events queued")
	c.Run(func() {}) // runs the marker
	waitReset(t, c)
	if got := c.Elapsed(); got != 0 {
		t.Fatalf("a reset clock reads %v, want 0", got)
	}
	if _, free := c.Segments(); free == 0 {
		t.Error("Reset dropped the free segments")
	}

	// An acceptor parked with nothing queued: parked.
	nw := NewNetwork(c, Link{})
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ln.Accept()
	}()
	waitAcceptorParked(t, c, ln)
	refused(c, "a parked goroutine", "0 busy, 1 parked")
	ln.Close()
	<-done
	waitReset(t, c)
}

// waitReset resets c once the goroutines that just left its ledger have
// given their tokens back.
func waitReset(t *testing.T, c *Clock) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.Reset()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}
