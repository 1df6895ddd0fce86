package simnet

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"time"
)

// errConnReset is what an endpoint's Write reports when the peer has
// closed: the virtual analogue of ECONNRESET. The proxy client treats it
// (like every error not marked permanent) as transient link damage.
var errConnReset = errors.New("simnet: connection reset by peer")

// simAddr is a net.Addr for virtual endpoints.
type simAddr string

func (a simAddr) Network() string { return "sim" }
func (a simAddr) String() string  { return string(a) }

// endpoint is one side of a virtual connection. All mutable state is
// guarded by the clock's lock. At most one goroutine may block in Read
// and one in Write at a time (the proxy's per-connection handlers and the
// client's fetch loop are sequential, so this matches usage); Close and
// deadline setters may be called from any goroutine, including ones
// outside the clock ledger — they never park.
type endpoint struct {
	c    *Clock
	nw   *Network // nil-able owner; carries the scripted link schedule
	peer *endpoint
	link Link
	// rng draws this direction's transmit jitter.
	rng           *rand.Rand
	local, remote simAddr

	// line, when non-nil, is the node-wide transmitter this endpoint's
	// writes serialize on (a server-side endpoint accepted from a
	// listener with an attached line). nil keeps per-endpoint pacing.
	line *line

	// nextFree is when this endpoint's outgoing link finishes its current
	// transmission; writes queue behind it (serialization, not loss).
	nextFree time.Duration
	// lastArrival is the latest delivery this endpoint has scheduled at
	// the peer; the close marker must not overtake it.
	lastArrival time.Duration

	// buf holds delivered-but-unread chunks, oldest first.
	buf [][]byte
	// rwait / wwait are the currently parked reader / writer, if any.
	rwait, wwait *waiter
	// rdl / wdl are the read / write deadlines; zero means none.
	rdl, wdl time.Time
	// closed is set by the local Close; peerClosed when the peer's close
	// marker has propagated across the link (reads then drain to EOF).
	closed, peerClosed bool
	// handoff marks a server-side endpoint still carrying the busy token
	// Accept attached for its handler goroutine; Close releases it.
	handoff bool
}

// expiredLocked reports whether deadline dl has passed in virtual time.
func (e *endpoint) expiredLocked(dl time.Time) bool {
	return !dl.IsZero() && !dl.After(e.c.epoch.Add(e.c.kern.Now()))
}

// untilLocked converts absolute deadline dl to a delay from virtual now.
func (e *endpoint) untilLocked(dl time.Time) time.Duration {
	return dl.Sub(e.c.epoch) - e.c.kern.Now()
}

// Read returns buffered delivered bytes, parking in virtual time while
// none are available. Data already delivered is returned even when the
// deadline has passed (matching kernel socket buffers); EOF surfaces only
// after the peer's close marker has both arrived and been preceded by
// every scheduled delivery.
func (e *endpoint) Read(b []byte) (int, error) {
	c := e.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if e.closed {
			return 0, net.ErrClosed
		}
		if len(e.buf) > 0 {
			n := copy(b, e.buf[0])
			if n == len(e.buf[0]) {
				e.buf = e.buf[1:]
			} else {
				e.buf[0] = e.buf[0][n:]
			}
			return n, nil
		}
		if e.peerClosed {
			return 0, io.EOF
		}
		if e.expiredLocked(e.rdl) {
			return 0, os.ErrDeadlineExceeded
		}
		w := &waiter{c: c}
		e.rwait = w
		if !e.rdl.IsZero() {
			// Wake at the deadline and re-evaluate: the loop re-derives
			// the timeout, which also handles a deadline that was extended
			// while we were parked.
			c.kern.ScheduleWake(e.untilLocked(e.rdl), w)
		}
		c.parkLocked(w)
		e.rwait = nil
		if w.err != nil {
			return 0, w.err
		}
	}
}

// Write serializes b onto the outgoing link: the call occupies the link
// for len(b)/rate (+ jitter) of virtual time — queueing behind earlier
// writes — and the bytes arrive at the peer one latency later. The
// sender parks until its transmission slot completes, which is what
// paces the proxy server at the modeled 802.11b rate.
func (e *endpoint) Write(b []byte) (int, error) {
	c := e.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.closed {
		return 0, net.ErrClosed
	}
	if e.peerClosed {
		return 0, errConnReset
	}
	if e.expiredLocked(e.wdl) {
		return 0, os.ErrDeadlineExceeded
	}
	if len(b) == 0 {
		return 0, nil
	}
	now := c.kern.Now()
	start := now
	var done time.Duration
	if e.line != nil {
		// Shared node transmitter: queue behind every other connection on
		// this node, at the line's rate. Jitter still comes from this
		// endpoint's own stream so per-connection draws stay deterministic.
		if e.line.nextFree > start {
			start = e.line.nextFree
		}
		done = start + e.line.link.txTime(len(b), e.rng)
		e.line.nextFree = done
		e.nextFree = done
	} else {
		if e.nextFree > start {
			start = e.nextFree
		}
		if e.nw != nil && e.nw.sched != nil {
			done = e.nw.sched.txDone(start, len(b), e.link, e.rng)
		} else {
			done = start + e.link.txTime(len(b), e.rng)
		}
		e.nextFree = done
	}
	arrival := done + e.link.Latency
	if arrival > e.lastArrival {
		e.lastArrival = arrival
	}
	data := append([]byte(nil), b...)
	pe := e.peer
	c.kern.Schedule(arrival-now, func() {
		if pe.closed {
			return // delivered into a closed socket: dropped
		}
		pe.buf = append(pe.buf, data)
		if pe.rwait != nil {
			c.wakeLocked(pe.rwait, nil)
		}
	})
	for {
		now = c.kern.Now()
		if now >= done {
			return len(b), nil
		}
		if e.closed {
			return 0, net.ErrClosed
		}
		if e.peerClosed {
			// The peer hung up while our bytes were in flight; fail the
			// write so the sender notices the disconnect promptly.
			return 0, errConnReset
		}
		if e.expiredLocked(e.wdl) {
			return 0, os.ErrDeadlineExceeded
		}
		wakeAt := done
		if !e.wdl.IsZero() {
			if dl := e.wdl.Sub(c.epoch); dl < wakeAt {
				wakeAt = dl
			}
		}
		w := &waiter{c: c}
		e.wwait = w
		c.kern.ScheduleWake(wakeAt-now, w)
		c.parkLocked(w)
		e.wwait = nil
		if w.err != nil {
			return 0, w.err
		}
	}
}

// Close shuts the endpoint: local waiters unblock with net.ErrClosed, a
// close marker propagates to the peer ordered after this direction's last
// scheduled delivery (so the peer drains all data before seeing EOF), and
// a server-side endpoint releases its accept handoff token. Close never
// parks and is safe from any goroutine; closing twice is a no-op.
func (e *endpoint) Close() error {
	c := e.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	if e.rwait != nil {
		c.wakeLocked(e.rwait, nil)
	}
	if e.wwait != nil {
		c.wakeLocked(e.wwait, nil)
	}
	at := e.link.Latency
	if rem := e.lastArrival - c.kern.Now(); rem > at {
		at = rem
	}
	pe := e.peer
	c.kern.Schedule(at, func() {
		if pe.closed {
			return
		}
		pe.peerClosed = true
		if pe.rwait != nil {
			c.wakeLocked(pe.rwait, nil)
		}
		if pe.wwait != nil {
			c.wakeLocked(pe.wwait, nil)
		}
	})
	if e.handoff {
		e.handoff = false
		c.dropTokenLocked()
	}
	return nil
}

func (e *endpoint) LocalAddr() net.Addr  { return e.local }
func (e *endpoint) RemoteAddr() net.Addr { return e.remote }

// SetReadDeadline installs t as the virtual-time read deadline; a parked
// reader is woken to re-evaluate immediately, so expiring the deadline
// (Server.Close's drain does exactly this) unblocks it synchronously.
func (e *endpoint) SetReadDeadline(t time.Time) error {
	c := e.c
	c.mu.Lock()
	defer c.mu.Unlock()
	e.rdl = t
	if e.rwait != nil {
		c.wakeLocked(e.rwait, nil)
	}
	return nil
}

// SetWriteDeadline installs t as the virtual-time write deadline.
func (e *endpoint) SetWriteDeadline(t time.Time) error {
	c := e.c
	c.mu.Lock()
	defer c.mu.Unlock()
	e.wdl = t
	if e.wwait != nil {
		c.wakeLocked(e.wwait, nil)
	}
	return nil
}

// SetDeadline sets both deadlines.
func (e *endpoint) SetDeadline(t time.Time) error {
	e.SetReadDeadline(t)
	return e.SetWriteDeadline(t)
}
