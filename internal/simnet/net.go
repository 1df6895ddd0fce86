package simnet

import (
	"fmt"
	"net"
	"strconv"

	"repro/internal/sim"
)

// Network is a set of named virtual listeners sharing one Clock. It is
// the factory for both ends of every connection: Listen binds a name,
// Dial reaches it over a Link.
type Network struct {
	clock *Clock
	link  Link
	// Guarded by clock.mu, like all simnet state.
	listeners map[string]*Listener
	connSeq   int
	// sched, when non-nil, scripts the shared medium's rate over virtual
	// time (rate cliffs, power-save pauses); see SetSchedule.
	sched *Schedule
}

// NewNetwork returns a network on clock whose Dial uses link by default.
func NewNetwork(clock *Clock, link Link) *Network {
	return &Network{clock: clock, link: link, listeners: make(map[string]*Listener)}
}

// Clock returns the network's virtual clock.
func (nw *Network) Clock() *Clock { return nw.clock }

// Listener is a virtual net.Listener. Accept must be called from a
// goroutine that is NOT otherwise in the clock ledger (the proxy server's
// plain accept-loop goroutine): each Accept call joins the ledger for its
// own duration, and each accepted connection carries one extra busy token
// covering the handler goroutine the server spawns for it, released when
// that handler closes the connection.
type Listener struct {
	c       *Clock
	nw      *Network
	name    string
	pending []*endpoint
	waiters []*waiter
	// backlog counts busy tokens held on behalf of pending connections
	// that arrived while no Accept was parked. The accept loop is a plain
	// goroutine the clock cannot see between Accept calls; the backlog
	// token freezes virtual time from the instant a connection request
	// lands until that loop (eventually, in real time) accepts it —
	// otherwise the clock could race past the dialer's deadlines while
	// the acceptor was merely unlucky with the host scheduler.
	backlog int
	closed  bool
	// line, when non-nil, is the shared transmitter server-side endpoints
	// accepted from this listener serialize on; see Network.SetLine.
	line *line
}

// Listen binds a virtual listener under name. Names are flat (no port
// semantics); binding a taken name is an error.
func (nw *Network) Listen(name string) (*Listener, error) {
	nw.clock.mu.Lock()
	defer nw.clock.mu.Unlock()
	if _, ok := nw.listeners[name]; ok {
		return nil, fmt.Errorf("simnet: address %q already bound", name)
	}
	l := &Listener{c: nw.clock, nw: nw, name: name}
	nw.listeners[name] = l
	return l, nil
}

// Accept returns the next established connection, parking in virtual
// time while none is pending.
func (l *Listener) Accept() (net.Conn, error) {
	c := l.c
	c.mu.Lock()
	defer c.mu.Unlock()
	// Join the ledger for the duration of the call: between Accept calls
	// the accept loop's (zero-virtual-time) bookkeeping is covered by the
	// returned connection's handoff token.
	c.busy++
	defer c.dropTokenLocked()
	for {
		if l.closed {
			return nil, net.ErrClosed
		}
		if len(l.pending) > 0 {
			ep := l.pending[0]
			l.pending = l.pending[1:]
			if l.backlog > 0 {
				// This connection's arrival froze the clock; our call token
				// keeps busy positive, so dropping it here cannot kick.
				l.backlog--
				c.dropTokenLocked()
			}
			ep.handoff = true
			c.busy++
			return ep, nil
		}
		w := &waiter{c: c}
		l.waiters = append(l.waiters, w)
		c.parkLocked(w)
		for i, o := range l.waiters {
			if o == w {
				l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
				break
			}
		}
		if w.err != nil {
			return nil, w.err
		}
	}
}

// Close unbinds the listener and fails parked and future Accepts.
// Established connections are unaffected.
func (l *Listener) Close() error {
	c := l.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	delete(l.nw.listeners, l.name)
	for _, w := range l.waiters {
		c.wakeLocked(w, net.ErrClosed)
	}
	// Orphaned pending connections will never be accepted; release their
	// backlog tokens so the clock can move again (their dialers then run
	// into deadlines or EOF on their own timelines).
	for l.backlog > 0 {
		l.backlog--
		c.dropTokenLocked()
	}
	return nil
}

// Addr returns the listener's virtual address.
func (l *Listener) Addr() net.Addr { return simAddr(l.name) }

// Dial connects to the named listener over the network's default link.
// The caller must be in the clock ledger (Clock.Go / Clock.Run): the call
// parks for the connection handshake (one round trip of virtual time).
func (nw *Network) Dial(name string) (net.Conn, error) {
	return nw.DialLink(name, nw.link)
}

// DialLink connects to the named listener over an explicit link — the
// hook a harness uses to give each connection its own seeded jitter
// stream.
func (nw *Network) DialLink(name string, link Link) (net.Conn, error) {
	c := nw.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := nw.listeners[name]
	if !ok || l.closed {
		return nil, &net.OpError{Op: "dial", Net: "sim", Addr: simAddr(name),
			Err: fmt.Errorf("connection refused (no listener %q)", name)}
	}
	nw.connSeq++
	caddr := simAddr("sim-peer-" + strconv.Itoa(nw.connSeq))
	cep := &endpoint{c: c, nw: nw, link: link, local: caddr, remote: simAddr(name),
		rng: sim.NewRand(dirSeed(link.Seed, 1))}
	sep := &endpoint{c: c, nw: nw, link: link, local: simAddr(name), remote: caddr,
		rng: sim.NewRand(dirSeed(link.Seed, 2)), line: l.line}
	cep.peer, sep.peer = sep, cep

	w := &waiter{c: c}
	// The connection request reaches the listener after one one-way
	// latency; the handshake completes at the dialer one round trip out.
	c.kern.Schedule(link.Latency, func() {
		if l.closed {
			c.wakeLocked(w, &net.OpError{Op: "dial", Net: "sim", Addr: simAddr(name),
				Err: fmt.Errorf("connection refused (listener closed)")})
			return
		}
		l.pending = append(l.pending, sep)
		if len(l.waiters) > 0 {
			c.wakeLocked(l.waiters[0], nil)
		} else {
			// No Accept is parked: hold a busy token until one arrives, so
			// virtual time cannot outrun the accept loop. (A listener that
			// is never accepted from freezes the clock — like dialing a
			// bound port whose accept queue nobody drains.)
			l.backlog++
			c.busy++
		}
	})
	c.kern.ScheduleWake(2*link.Latency, w)
	c.parkLocked(w)
	if w.err != nil {
		return nil, w.err
	}
	return cep, nil
}

// ensure interface compliance
var (
	_ net.Listener = (*Listener)(nil)
	_ net.Conn     = (*endpoint)(nil)
)
