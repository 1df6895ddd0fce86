// Package simnet is the deterministic testbed transport: an in-memory
// net.Conn / net.Listener pair driven by the internal/sim virtual clock,
// with a configurable 802.11b link model (bandwidth, per-hop latency,
// seeded jitter). The unmodified proxy server and client run end-to-end
// on it in virtual time — transfer times, I/O deadlines and retry backoff
// advance the simulated clock, not the host clock — so a multi-client
// hostile-link soak that would take minutes of wall time over real TCP
// replays in milliseconds, bit-identically, from a seed.
//
// # How virtual time advances
//
// The clock keeps a ledger of "busy" goroutines: goroutines the clock
// knows about that are currently runnable. Virtual time is frozen while
// any of them runs — CPU work (compression, CRC, scheduling) costs zero
// virtual time, exactly like the paper's analytical model, which charges
// time only to the link and to the modeled td term. When the last busy
// goroutine parks (a blocked Read, a Sleep, a paced Write, an Accept),
// the clock pops the earliest pending event from the internal/sim kernel,
// jumps to its timestamp and runs it; events wake parked goroutines,
// making them busy again. The result is a deterministic interleaving: a
// goroutine's wall-clock speed never influences what virtual time it
// observes.
//
// Goroutines enter the ledger three ways: explicitly via Clock.Go /
// Clock.Run (harness clients, test bodies), implicitly when a goroutine
// first calls Accept on a listener (the proxy's accept loop), and via a
// handoff token attached to each accepted connection that covers the
// per-connection handler goroutine the server spawns (released when the
// handler closes the connection). Goroutines outside the ledger must not
// block on simnet primitives — doing so panics with a diagnostic — but
// may freely perform non-blocking operations (Close, deadline pokes),
// which is what Server.Close does during drain.
package simnet

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// Clock is the concurrent virtual clock. It satisfies proxy.WallClock, so
// a proxy Client or Server configured with it runs its sleeps and
// deadlines in virtual time. All simnet state (connections, listeners)
// is guarded by the clock's single lock: within one Clock there is one
// timeline and one source of ordering.
type Clock struct {
	mu   sync.Mutex
	kern *sim.Kernel
	// epoch anchors virtual time zero to a wall instant, so Now() returns
	// ordinary time.Time values (logs and span timestamps stay readable).
	epoch time.Time
	// busy counts ledger goroutines currently runnable. Time may only
	// advance when it is zero.
	busy int
	// parked counts goroutines blocked in parkLocked, for diagnostics.
	parked int
}

// NewClock returns a virtual clock at virtual time zero, anchored so that
// Now() starts at (approximately) the real present.
func NewClock() *Clock {
	return &Clock{kern: sim.NewKernel(), epoch: time.Now()}
}

// waiter is one park of one goroutine, made fresh for it. woken and err
// are guarded by the clock lock; wakeLocked transfers a busy token to the
// waiter as it wakes it. Each waiter sleeps on its own condition variable
// (armed only when it actually has to wait), so waking one costs one
// Signal instead of a broadcast to every parked goroutine — the difference
// between O(1) and O(clients) per event on a 10,000-client soak.
//
// A waiter is also the kernel event that wakes it (sim.Waker): a timeout
// is the waiter itself in the event queue, with no closure around it. Such
// an event needs no cancelling — a park returns only once its waiter is
// woken, waking a woken waiter is a no-op, and no waiter is parked on
// twice — so one that outlives its park fires into nothing. It still takes
// its turn in the queue: the clock visits its time, as every trace expects.
type waiter struct {
	c     *Clock
	woken bool
	err   error
	cond  sync.Cond // L is set once a goroutine waits on it
}

// Wake is the waiter's timeout firing, under the clock lock like every
// kernel event.
func (w *waiter) Wake() { w.c.wakeLocked(w, nil) }

// Now returns the current virtual time as a wall-anchored time.Time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch.Add(c.kern.Now())
}

// Elapsed returns the virtual time elapsed since the clock started.
func (c *Clock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.kern.Now()
}

// Sleep parks the calling goroutine for d of virtual time. The caller
// must be in the ledger (Go/Run, or a proxy goroutine covered by an
// accept handoff).
func (c *Clock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &waiter{c: c}
	c.kern.ScheduleWake(d, w)
	c.parkLocked(w)
}

// Go runs fn on a new goroutine registered in the ledger: the clock will
// not advance past a moment where fn is runnable.
func (c *Clock) Go(fn func()) {
	c.mu.Lock()
	c.busy++
	c.mu.Unlock()
	go func() {
		defer c.exit()
		fn()
	}()
}

// Run executes fn on a ledger goroutine and blocks the caller until it
// returns. It is how code outside the ledger (a test body, a CLI main)
// drives blocking simnet operations: the caller waits on a plain channel,
// invisible to the clock, while fn runs in virtual time.
func (c *Clock) Run(fn func()) {
	done := make(chan struct{})
	c.Go(func() {
		defer close(done)
		fn()
	})
	<-done
}

// exit removes a ledger goroutine that is returning.
func (c *Clock) exit() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropTokenLocked()
}

// dropTokenLocked releases one busy token outside a park (goroutine exit,
// accept-loop deregistration, handler-close handoff release) and, when
// that quiesces the system, advances time until someone wakes.
func (c *Clock) dropTokenLocked() {
	c.busy--
	if c.busy < 0 {
		panic("simnet: busy-token ledger went negative (released a token never acquired)")
	}
	c.kickLocked()
}

// kickLocked advances virtual time while the system is quiescent: no
// ledger goroutine runnable, at least one event pending. Each step may
// wake parked goroutines (making busy > 0 again), which stops the loop.
func (c *Clock) kickLocked() {
	for c.busy == 0 && c.kern.Pending() > 0 {
		c.kern.Step()
	}
}

// parkLocked blocks the calling ledger goroutine until w is woken,
// releasing its busy token for the duration. The goroutine that takes
// busy to zero advances the clock itself (kickLocked); every other parked
// goroutine sleeps on its own waiter cond until a wake targets it.
// Called with the lock held; returns with it held.
func (c *Clock) parkLocked(w *waiter) {
	c.busy--
	if c.busy < 0 {
		panic("simnet: blocking call from a goroutine outside the clock ledger; wrap it in Clock.Run or Clock.Go")
	}
	c.parked++
	// If parking just quiesced the system, advance time from right here
	// until some waiter (possibly this one) becomes runnable. Every path
	// that decrements busy kicks, so whenever busy is 0 with events
	// pending, exactly one goroutine is inside this loop stepping them.
	c.kickLocked()
	if !w.woken {
		w.cond.L = &c.mu
		for !w.woken {
			// Another ledger goroutine is runnable (it will advance time
			// when it parks or exits) or the system is fully idle (an
			// outside goroutine — Server.Close, a new Clock.Go — must
			// intervene). Either way our wake arrives as a targeted Signal.
			w.cond.Wait()
		}
	}
	c.parked--
}

// wakeLocked marks w woken, transferring a busy token to it on its
// behalf — the token is held from this instant, before the goroutine is
// scheduled, so time cannot slip past the wakeup. Waking an already-woken
// waiter is a no-op (a deadline poke racing a delivery, say).
func (c *Clock) wakeLocked(w *waiter, err error) {
	if w.woken {
		return
	}
	w.woken = true
	w.err = err
	c.busy++
	if w.cond.L != nil {
		w.cond.Signal()
	}
}
