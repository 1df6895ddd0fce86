package simnet

import (
	"errors"
	"io"
	"net"
	"os"
	"time"

	"repro/internal/sim"
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
	nw   *Network // owner; carries the scripted link schedule
	peer *endpoint
	// transmitter is this direction's own link and pacing state; its Link
	// also gives the hop's latency.
	transmitter
	// tx is the transmitter this endpoint's writes serialize on: its own,
	// or the node-wide line of the listener that accepted it.
	tx *transmitter
	// rng draws this direction's transmit jitter.
	rng sim.Stream
	// local and remote point into the connection's pipe and its listener,
	// so handing them out boxes nothing.
	local, remote net.Addr

	// lastArrival is the latest delivery this endpoint has scheduled at
	// the peer; the close marker must not overtake it.
	lastArrival time.Duration

	// buf holds delivered-but-unread segments, oldest first, from
	// buf[head] on; roff bytes of buf[head] have been read.
	buf        [][]byte
	head, roff int
	// inline backs buf until more than two segments wait unread.
	inline [2][]byte
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
		if e.head < len(e.buf) {
			seg := e.buf[e.head]
			n := copy(b, seg[e.roff:])
			if e.roff += n; e.roff == len(seg) {
				e.buf[e.head] = nil
				e.head, e.roff = e.head+1, 0
				if e.head == len(e.buf) {
					e.buf, e.head = e.buf[:0], 0
				}
				c.putSegLocked(seg)
			}
			return n, nil
		}
		if e.peerClosed {
			return 0, io.EOF
		}
		if e.expiredLocked(e.rdl) {
			return 0, os.ErrDeadlineExceeded
		}
		w := c.waiterLocked()
		e.rwait = w
		if !e.rdl.IsZero() {
			// Wake at the deadline and re-evaluate: the loop re-derives
			// the timeout, which also handles a deadline that was extended
			// while we were parked.
			c.timeoutLocked(e.untilLocked(e.rdl), w)
		}
		err := c.parkLocked(w)
		e.rwait = nil
		if err != nil {
			return 0, err
		}
	}
}

// Write serializes b on the endpoint's transmitter (its own, or its
// node's line): the call occupies it for len(b)/rate (+ jitter) of
// virtual time at the rate the network's schedule gives — queueing behind
// earlier writes — and the bytes arrive at the peer one latency later.
// The sender parks until its transmission slot completes, which is what
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
	// Jitter comes from this endpoint's own stream, so a shared line
	// keeps per-connection draws deterministic.
	now := c.kern.Now()
	tx := e.tx
	done := e.nw.sched.txDone(max(now, tx.nextFree), len(b), tx.link, &e.rng)
	tx.nextFree = done
	arrival := done + e.link.Latency
	if arrival > e.lastArrival {
		e.lastArrival = arrival
	}
	seg := c.segLocked(len(b))
	copy(seg, b)
	c.kern.ScheduleWake(arrival-now, c.noticeLocked(e.peer, seg))
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
		w := c.waiterLocked()
		e.wwait = w
		c.timeoutLocked(wakeAt-now, w)
		err := c.parkLocked(w)
		e.wwait = nil
		if err != nil {
			return 0, err
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
	// Unread segments go back to the clock; so will any still in flight
	// to this endpoint, as they arrive.
	for _, seg := range e.buf[e.head:] {
		c.putSegLocked(seg)
	}
	e.buf, e.head, e.roff = nil, 0, 0
	at := e.link.Latency
	if rem := e.lastArrival - c.kern.Now(); rem > at {
		at = rem
	}
	c.kern.ScheduleWake(at, c.noticeLocked(e.peer, nil))
	if e.handoff {
		e.handoff = false
		c.dropTokenLocked()
	}
	return nil
}

// notice is a kernel event that crosses a link to endpoint to: a segment
// of written bytes arriving (seg non-nil), or the close marker. Notices
// come from the clock's free list and return to it once they have fired.
type notice struct {
	to  *endpoint
	seg []byte
}

// Wake delivers the notice, under the clock lock like every kernel event.
func (n *notice) Wake() {
	pe, seg := n.to, n.seg
	c := pe.c
	*n = notice{}
	if len(c.notices) < maxFree {
		c.notices = append(c.notices, n)
	}
	switch {
	case pe.closed:
		// Delivered into a closed socket: dropped.
		if seg != nil {
			c.putSegLocked(seg)
		}
	case seg != nil:
		pe.buf = append(pe.buf, seg)
		if pe.rwait != nil {
			c.wakeLocked(pe.rwait, nil)
		}
	default:
		pe.peerClosed = true
		if pe.rwait != nil {
			c.wakeLocked(pe.rwait, nil)
		}
		if pe.wwait != nil {
			c.wakeLocked(pe.wwait, nil)
		}
	}
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
