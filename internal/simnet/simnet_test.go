package simnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSleepAdvancesVirtualTime: a ten-virtual-second sleep must cost
// virtually nothing in wall time and exactly ten seconds on the clock.
func TestSleepAdvancesVirtualTime(t *testing.T) {
	c := NewClock()
	wallStart := time.Now()
	c.Run(func() { c.Sleep(10 * time.Second) })
	if got := c.Elapsed(); got != 10*time.Second {
		t.Fatalf("Elapsed = %v, want 10s", got)
	}
	if wall := time.Since(wallStart); wall > 5*time.Second {
		t.Fatalf("virtual sleep took %v of wall time", wall)
	}
}

// TestConcurrentSleepsInterleave: sleepers wake in virtual-time order
// regardless of goroutine scheduling.
func TestConcurrentSleepsInterleave(t *testing.T) {
	c := NewClock()
	order := make(chan time.Duration, 3)
	c.Run(func() {
		for _, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond} {
			d := d
			c.Go(func() {
				c.Sleep(d)
				order <- c.Elapsed()
			})
		}
		c.Sleep(20 * time.Millisecond)
		order <- c.Elapsed()
	})
	// The 30 ms sleeper outlives the Run body; its own park drives the
	// clock to its wake time once everyone else has exited.
	got := []time.Duration{<-order, <-order, <-order}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wake order[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// waitAcceptorParked blocks (in real time) until a goroutine is parked in
// l.Accept. The proxy's accept loop is a plain goroutine invisible to the
// clock until its first Accept call, so a test that wants an exactly
// reproducible timeline syncs here before dialing; without it the first
// dial's listener-side timeline can shift by one latency depending on
// which side reaches the clock first.
func waitAcceptorParked(t *testing.T, c *Clock, l *Listener) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		n := len(l.waiters)
		c.mu.Unlock()
		if n > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("acceptor never parked in Accept")
}

// transfer pushes payload through a fresh network at the given link and
// returns the received bytes and the virtual instant the last byte (and
// EOF) was observed.
func transfer(t *testing.T, link Link, payload []byte) ([]byte, time.Duration) {
	t.Helper()
	c := NewClock()
	nw := NewNetwork(c, link)
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for off := 0; off < len(payload); off += 64 << 10 {
			end := min(off+64<<10, len(payload))
			if _, err := conn.Write(payload[off:end]); err != nil {
				return
			}
		}
	}()
	waitAcceptorParked(t, c, ln)
	var got []byte
	var done time.Duration
	c.Run(func() {
		conn, err := nw.Dial("srv")
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		got, err = io.ReadAll(conn)
		if err != nil {
			t.Error(err)
		}
		done = c.Elapsed() // measured before the deferred Close's marker moves the clock
	})
	ln.Close()
	return got, done
}

// TestTransferPacedAtLinkRate: 1 MB over a 1 MB/s link must take ~1
// virtual second (plus handshake and delivery latencies) and arrive
// byte-exact, in far less wall time.
func TestTransferPacedAtLinkRate(t *testing.T) {
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	wallStart := time.Now()
	got, elapsed := transfer(t, Link{BytesPerSec: float64(len(payload)), Latency: time.Millisecond}, payload)
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: got %d bytes", len(got))
	}
	lo, hi := time.Second, time.Second+50*time.Millisecond
	if elapsed < lo || elapsed > hi {
		t.Fatalf("virtual transfer time %v, want ~[%v, %v]", elapsed, lo, hi)
	}
	if wall := time.Since(wallStart); wall > 10*time.Second {
		t.Fatalf("virtual transfer took %v of wall time", wall)
	}
}

// TestJitterDeterministicPerSeed: the same seed gives the same virtual
// timeline; different seeds give different ones.
func TestJitterDeterministicPerSeed(t *testing.T) {
	payload := make([]byte, 256<<10)
	link := Link{BytesPerSec: 1e6, Latency: time.Millisecond, JitterFrac: 0.25}
	run := func(seed int64) time.Duration {
		l := link
		l.Seed = seed
		_, elapsed := transfer(t, l, payload)
		return elapsed
	}
	a, b, c := run(7), run(7), run(8)
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if a == c {
		t.Fatalf("different seeds collided at %v", a)
	}
}

// TestReadDeadlineFiresInVirtualTime: a read deadline on a silent peer
// returns os.ErrDeadlineExceeded at the deadline's virtual instant.
func TestReadDeadlineFiresInVirtualTime(t *testing.T) {
	c := NewClock()
	nw := NewNetwork(c, Link{Latency: time.Millisecond})
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn
		// Park in a read (like a real handler) so the accepted side's
		// handoff token is lent back to the clock and time can advance;
		// the close at test end unblocks it. Never writes.
		var b [1]byte
		conn.Read(b[:])
	}()
	waitAcceptorParked(t, c, ln)
	var firedAt time.Duration
	c.Run(func() {
		conn, err := nw.Dial("srv")
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		if err := conn.SetReadDeadline(c.Now().Add(500 * time.Millisecond)); err != nil {
			t.Error(err)
			return
		}
		var buf [1]byte
		_, err = conn.Read(buf[:])
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("Read error = %v, want deadline exceeded", err)
		}
		firedAt = c.Elapsed()
	})
	// Handshake (2 ms) + 500 ms deadline.
	if want := 502 * time.Millisecond; firedAt != want {
		t.Fatalf("deadline fired at %v, want %v", firedAt, want)
	}
	(<-accepted).Close()
	ln.Close()
}

// TestExpiredDeadlineWakesParkedReader: expiring the deadline from a
// goroutine outside the clock ledger (what Server.Close's drain does)
// must unblock a parked reader.
func TestExpiredDeadlineWakesParkedReader(t *testing.T) {
	c := NewClock()
	nw := NewNetwork(c, Link{Latency: time.Millisecond})
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	connCh := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		connCh <- conn
		var b [1]byte
		conn.Read(b[:]) // park, lending the handoff token back
	}()
	dialed := make(chan net.Conn, 1)
	readErr := make(chan error, 1)
	go c.Run(func() {
		conn, err := nw.Dial("srv")
		if err != nil {
			t.Error(err)
			return
		}
		dialed <- conn
		var buf [1]byte
		_, err = conn.Read(buf[:]) // parks forever: no data, no deadline
		readErr <- err
	})
	conn := <-dialed
	time.Sleep(20 * time.Millisecond) // let the reader park
	if err := conn.SetReadDeadline(c.Now()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-readErr:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Read error = %v, want deadline exceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("expiring the deadline did not unblock the reader")
	}
	conn.Close()
	(<-connCh).Close()
	ln.Close()
}

// TestCloseDeliversEOFAfterData: data written before Close must drain at
// the reader before EOF surfaces, even when Close follows immediately.
func TestCloseDeliversEOFAfterData(t *testing.T) {
	c := NewClock()
	nw := NewNetwork(c, Link{BytesPerSec: 1e6, Latency: time.Millisecond})
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("last words before the close marker")
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Write(msg)
		conn.Close()
	}()
	c.Run(func() {
		conn, err := nw.Dial("srv")
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		got, err := io.ReadAll(conn)
		if err != nil {
			t.Errorf("ReadAll: %v", err)
		}
		if !bytes.Equal(got, msg) {
			t.Errorf("got %q, want %q", got, msg)
		}
	})
	ln.Close()
}

// TestWriteAfterPeerCloseFails: once the peer's close marker lands,
// writes report a reset — the disconnect signal the proxy server relies
// on to abandon a dead transfer.
func TestWriteAfterPeerCloseFails(t *testing.T) {
	c := NewClock()
	nw := NewNetwork(c, Link{BytesPerSec: 1e6, Latency: time.Millisecond})
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	result := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var werr error
		for i := 0; i < 100 && werr == nil; i++ {
			_, werr = conn.Write(make([]byte, 32<<10))
		}
		result <- werr
	}()
	c.Run(func() {
		conn, err := nw.Dial("srv")
		if err != nil {
			t.Error(err)
			return
		}
		var buf [4096]byte
		conn.Read(buf[:]) // take one chunk, then hang up mid-transfer
		conn.Close()
	})
	select {
	case err := <-result:
		if err == nil {
			t.Fatal("writes into a closed peer never failed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writer never observed the disconnect")
	}
	ln.Close()
}

// TestDialClosedListenerRefused: dialing an unbound or closed name fails
// without parking.
func TestDialClosedListenerRefused(t *testing.T) {
	c := NewClock()
	nw := NewNetwork(c, Link{Latency: time.Millisecond})
	if _, err := nw.Dial("nobody"); err == nil {
		t.Fatal("dial to unbound name succeeded")
	}
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	if _, err := nw.Dial("srv"); err == nil {
		t.Fatal("dial to closed listener succeeded")
	}
}

// schedTransfer pushes payload through a network carrying the given link
// schedule and returns the virtual instant the receiver saw EOF. With
// line set the server writes on its listener's shared line rather than
// its connection's own transmitter; one network is one medium, so the
// schedule must pace both alike.
func schedTransfer(t *testing.T, link Link, phases []Phase, payload []byte, line bool) time.Duration {
	t.Helper()
	c := NewClock()
	nw := NewNetwork(c, link)
	if err := nw.SetSchedule(phases); err != nil {
		t.Fatal(err)
	}
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	if line {
		if err := nw.SetLine("srv"); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write(payload)
	}()
	waitAcceptorParked(t, c, ln)
	var done time.Duration
	c.Run(func() {
		conn, err := nw.Dial("srv")
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		if _, err := io.ReadAll(conn); err != nil {
			t.Error(err)
		}
		done = c.Elapsed()
	})
	return done
}

// forEachTransmitter runs f once on a connection's own transmitter and
// once on a listener's shared line.
func forEachTransmitter(t *testing.T, f func(t *testing.T, line bool)) {
	t.Run("own", func(t *testing.T) { f(t, false) })
	t.Run("line", func(t *testing.T) { f(t, true) })
}

// TestScheduleRateCliff: a mid-transfer rate drop stretches exactly the
// bytes serialized after the cliff. 1500 B at 1000 B/s dropping to 500 B/s
// at t=1s: the first 1000 B take the first second, the remaining 500 B a
// further second — EOF at 2s (latency zero keeps the arithmetic exact).
func TestScheduleRateCliff(t *testing.T) {
	forEachTransmitter(t, func(t *testing.T, line bool) {
		link := Link{BytesPerSec: 1000}
		phases := []Phase{{Start: time.Second, Rate: 500}}
		done := schedTransfer(t, link, phases, bytes.Repeat([]byte{7}, 1500), line)
		if done != 2*time.Second {
			t.Fatalf("EOF at %v, want 2s", done)
		}
	})
}

// TestSchedulePowerSavePause: a paused phase stalls the transmission for
// its whole window, then the link resumes at the restored rate. 1500 B at
// 1000 B/s with the link dark over [1s, 2s): 1000 B by 1s, dead air to 2s,
// the rest by 2.5s.
func TestSchedulePowerSavePause(t *testing.T) {
	forEachTransmitter(t, func(t *testing.T, line bool) {
		link := Link{BytesPerSec: 1000}
		phases := []Phase{{Start: time.Second, Rate: 0}, {Start: 2 * time.Second, Rate: 1000}}
		done := schedTransfer(t, link, phases, bytes.Repeat([]byte{7}, 1500), line)
		if done != 2500*time.Millisecond {
			t.Fatalf("EOF at %v, want 2.5s", done)
		}
	})
}

// TestScheduleInfiniteBaseRate: a link with no rate of its own is
// infinitely fast until the schedule's first phase, as it is with no
// schedule: 100 B written at time zero arrive at once, not paced at the
// first phase's rate once it begins.
func TestScheduleInfiniteBaseRate(t *testing.T) {
	forEachTransmitter(t, func(t *testing.T, line bool) {
		phases := []Phase{{Start: time.Second, Rate: 1000}}
		done := schedTransfer(t, Link{}, phases, bytes.Repeat([]byte{7}, 100), line)
		if done != 0 {
			t.Fatalf("EOF at %v, want 0s", done)
		}
	})
}

// TestScheduleValidation: out-of-order phases and schedules that end
// paused (an eternal power-save window would deadlock every writer) must
// be rejected before any traffic runs.
func TestScheduleValidation(t *testing.T) {
	nw := NewNetwork(NewClock(), Link{BytesPerSec: 1000})
	cases := [][]Phase{
		nil,
		{{Start: time.Second, Rate: 100}, {Start: time.Second, Rate: 200}},
		{{Start: 2 * time.Second, Rate: 100}, {Start: time.Second, Rate: 200}},
		{{Start: -time.Second, Rate: 100}},
		{{Start: time.Second, Rate: 0}},
	}
	for i, phases := range cases {
		if err := nw.SetSchedule(phases); err == nil {
			t.Errorf("case %d: bad schedule accepted", i)
		}
	}
	if err := nw.SetSchedule([]Phase{{Start: time.Second, Rate: 0}, {Start: 2 * time.Second, Rate: 1}}); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

// TestManyParkedGoroutines: ten thousand concurrent sleepers — the
// fleet-10k shape — must drain without the wakeup path degrading into
// a broadcast storm. The test goroutine stays outside the ledger (a plain
// WaitGroup wait), so time starts advancing as soon as every sleeper has
// parked.
func TestManyParkedGoroutines(t *testing.T) {
	c := NewClock()
	const n = 10_000
	var wg sync.WaitGroup
	var sum atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			c.Sleep(time.Duration(i%97+1) * time.Millisecond)
			sum.Add(1)
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("fleet of sleepers did not drain")
	}
	if got := sum.Load(); got != n {
		t.Fatalf("%d of %d sleepers ran", got, n)
	}
	// Time may begin advancing while later sleepers are still being
	// spawned, so the fleet drains somewhere past one full sleep span but
	// nowhere near the sum of all sleeps.
	if got := c.Elapsed(); got < 97*time.Millisecond || got > time.Second {
		t.Fatalf("Elapsed = %v, want within [97ms, 1s]", got)
	}
}
