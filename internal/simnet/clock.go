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
// Goroutines enter the ledger three ways: explicitly via Clock.Go,
// Clock.GoAfter and Clock.Run (harness clients, the server's artifact
// builds, test bodies), implicitly when a goroutine first calls Accept on
// a listener (the proxy's accept loop), and via a handoff token attached
// to each accepted connection that covers the per-connection handler
// goroutine the server spawns (released when the handler closes the
// connection). Goroutines outside the ledger must not block on simnet
// primitives — doing so panics with a diagnostic — but may freely perform
// non-blocking operations (Close, deadline pokes), which is what
// Server.Close does during drain.
//
// The explicit starts share one path: fn runs on an idle ledger goroutine
// (a worker) when the clock has one and on a new one only when none is
// idle, and a worker whose fn returns waits for the next start until the
// clock comes to rest, when every idle worker exits. A GoAfter start is an
// event in the queue, not a parked goroutine, so a simulated handheld
// exists only from its turn: a pass of 2,500 staggered handhelds holds
// goroutines for the few dozen on the air, each on a stack an earlier one
// grew.
package simnet

import (
	"fmt"
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
	// rest wakes WaitIdle's callers when the clock comes to rest; resting
	// is set while one waits.
	rest    sync.Cond
	resting bool

	// idle are the workers waiting for a start, the last to finish on top;
	// spawned counts the workers started since NewClock or Reset.
	idle    []*worker
	spawned int

	// The free lists (free.go): idle waiters, notices, queued starts and
	// write segments.
	waiters  []*waiter
	notices  []*notice
	launches []*launch
	segs     [segClasses][][]byte
	// segFree is the bytes segs holds; segsHeld counts segments taken by a
	// Write and not yet returned (in flight, or buffered unread).
	segFree, segsHeld int
}

// NewClock returns a virtual clock at virtual time zero, anchored so that
// Now() starts at (approximately) the real present.
func NewClock() *Clock {
	c := &Clock{kern: sim.NewKernel(), epoch: time.Now()}
	c.rest.L = &c.mu
	return c
}

// Reset returns a quiescent clock to virtual time zero, anchored anew at
// the real present, as NewClock would make it; it keeps its free lists
// and the kernel queue's storage, so the next run on it starts with the
// objects the last one left. It refuses a clock that is not quiescent: a
// goroutine still busy or parked, an event still queued, or a segment
// still held. A run's listeners and connections must be done with before
// it is reset; nothing ties them to the new timeline.
func (c *Clock) Reset() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.busy != 0 || c.parked != 0 || c.segsHeld != 0 {
		return fmt.Errorf("simnet: reset of a clock in use: %d busy, %d parked, %d segments held",
			c.busy, c.parked, c.segsHeld)
	}
	if err := c.kern.Reset(); err != nil {
		return err
	}
	c.epoch = time.Now()
	c.spawned = 0
	return nil
}

// waiter is one park of one goroutine, taken from the clock's free list.
// Its fields are guarded by the clock lock; wakeLocked transfers a busy
// token to the waiter as it wakes it. Each waiter sleeps on its own
// condition variable (given its L only when it actually has to wait), so
// waking one costs one Signal instead of a broadcast to every parked
// goroutine — the difference between O(1) and O(clients) per event on a
// 10,000-client soak.
//
// A waiter is also the kernel event that wakes it (sim.Waker): a timeout
// is the waiter itself in the event queue, with no closure around it, and
// timer names it there. Whatever else wakes the waiter first (data, a
// close, a deadline poke) cancels the timeout, so a park that ends leaves
// nothing of itself in the queue and its waiter goes back on the free list
// at once. The kernel keeps the cancelled timeout's time: a clock that
// runs out of events stands at the latest deadline it ever queued, as it
// would had the timeout stayed queued and fired into nothing.
type waiter struct {
	c     *Clock
	woken bool
	err   error
	timer sim.Timer // the queued timeout, zero when there is none
	cond  sync.Cond // L is set once a goroutine waits on it
}

// Wake is the waiter's timeout firing, under the clock lock like every
// kernel event; the timer it cancels has already run, which leaves the
// queue as it is.
func (w *waiter) Wake() {
	w.c.wakeLocked(w, nil)
}

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
	w := c.waiterLocked()
	c.timeoutLocked(d, w)
	c.parkLocked(w)
}

// Go runs fn on a ledger goroutine: the clock will not advance past a
// moment where fn is runnable. The goroutine is an idle worker when the
// clock has one, a new one otherwise; it outlives fn only as long as the
// clock keeps running (see worker).
func (c *Clock) Go(fn func()) {
	c.mu.Lock()
	c.startLocked(startFunc(fn))
	c.mu.Unlock()
}

// A Starter is what GoAfter starts: its Start runs on a ledger goroutine.
// A pointer to a caller's own state satisfies it without allocating, where
// a method value or closure over that state would cost one.
type Starter interface{ Start() }

// startFunc is the Starter that runs a func: Go's fn, as the one kind of
// start a worker runs.
type startFunc func()

func (f startFunc) Start() { f() }

// GoAfter runs st.Start on a ledger goroutine once d of virtual time has
// passed, as Go(func() { c.Sleep(d); st.Start() }) does, with no goroutine
// until then: the start is one event in the kernel queue, pushed where
// that Sleep would push its timeout. Called outside the ledger while the
// clock is at rest, it runs the clock on at once.
func (c *Clock) GoAfter(d time.Duration, st Starter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d <= 0 {
		c.startLocked(st)
		return
	}
	c.kern.ScheduleWake(d, c.launchLocked(st))
	c.kickLocked()
}

// Run executes fn on a ledger goroutine and blocks the caller until it
// returns. It is how code outside the ledger (a test body, a CLI main)
// drives blocking simnet operations: the caller waits on a plain channel,
// invisible to the clock, while fn runs in virtual time on a worker, as
// Go's fn does.
func (c *Clock) Run(fn func()) {
	done := make(chan struct{})
	c.Go(func() {
		defer close(done)
		fn()
	})
	<-done
}

// startLocked gives fn a busy token and a ledger goroutine to run on: the
// idle worker that finished last, or a new one when none is idle.
func (c *Clock) startLocked(fn Starter) {
	c.busy++
	if w, ok := pop(&c.idle); ok {
		w.fn = fn
		w.cond.Signal()
		return
	}
	c.spawned++
	w := &worker{c: c}
	w.cond.L = &c.mu
	go w.run(fn)
}

// Spawned reports how many ledger goroutines the clock has started since
// it was made or last reset: one per start that found no worker idle.
func (c *Clock) Spawned() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spawned
}

// worker is a ledger goroutine that runs one start's fn after another.
// Between two it is on the clock's idle list, holding no busy token and
// no waiter, and waits on its own condition variable for startLocked to
// hand it the next fn, or for the clock to come to rest: nothing runnable
// and nothing queued, so no start can come unless a goroutine outside the
// ledger makes one. Then it exits, and a rested clock has no goroutine of
// its own left.
type worker struct {
	c        *Clock
	fn       Starter // the next start's, set while the worker is idle
	released bool    // the clock came to rest while the worker was idle
	cond     sync.Cond
}

// run is the worker's goroutine: fn, then whatever starts come its way.
func (w *worker) run(fn Starter) {
	done := false
	defer func() {
		if !done {
			// fn left by runtime.Goexit (a test's t.Fatal): its token
			// goes back as a returning fn's would.
			w.c.exit()
		}
	}()
	for fn != nil {
		fn.Start()
		fn = w.next()
	}
	done = true
}

// next gives back the token of the fn that just returned, joins the idle
// list and waits for the next fn, which it returns, or for the clock to
// release it, when it returns nil. It joins the list before dropping the
// token, so a start that the drop's kick runs takes this worker at once.
func (w *worker) next() Starter {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idle = append(c.idle, w)
	c.dropTokenLocked()
	for w.fn == nil && !w.released {
		w.cond.Wait()
	}
	fn := w.fn
	w.fn = nil
	return fn
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
	// The last Step finds the queue empty and moves the clock to the
	// latest deadline a cancelled timeout left.
	for c.busy == 0 && c.kern.Step() {
	}
	if c.busy != 0 {
		return
	}
	if c.kern.Pending() == 0 {
		// At rest: no start can come from inside the ledger.
		for i, w := range c.idle {
			w.released = true
			w.cond.Signal()
			c.idle[i] = nil
		}
		c.idle = c.idle[:0]
	}
	if c.resting {
		c.resting = false
		c.rest.Broadcast()
	}
}

// WaitIdle blocks its caller, a goroutine outside the ledger, until the
// clock comes to rest: no ledger goroutine runnable and no event queued,
// so virtual time stands at the last event that will ever run unless a
// goroutine outside the ledger starts something new. Events such a
// goroutine queued it runs itself; a ledger goroutine that stays busy
// forever makes it wait forever.
func (c *Clock) WaitIdle() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.kickLocked()
	for c.busy > 0 || c.kern.Pending() > 0 {
		c.resting = true
		c.rest.Wait()
	}
}

// parkLocked blocks the calling ledger goroutine until w is woken,
// releasing its busy token for the duration, and returns the error w was
// woken with. The goroutine that takes busy to zero advances the clock
// itself (kickLocked); every other parked goroutine sleeps on its own
// waiter cond until a wake targets it. The park is w's last use by its
// goroutine: w goes back to the clock, and the caller must not touch it
// again. Called with the lock held; returns with it held.
func (c *Clock) parkLocked(w *waiter) error {
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
	err := w.err
	if len(c.waiters) < maxFree {
		c.waiters = append(c.waiters, w)
	}
	return err
}

// wakeLocked marks w woken, transferring a busy token to it on its
// behalf — the token is held from this instant, before the goroutine is
// scheduled, so time cannot slip past the wakeup — and cancels its queued
// timeout, if another wake came first. Waking an already-woken waiter is
// a no-op (a deadline poke racing a delivery, say).
func (c *Clock) wakeLocked(w *waiter, err error) {
	if w.woken {
		return
	}
	w.woken = true
	w.err = err
	c.kern.Cancel(w.timer)
	w.timer = sim.Timer{}
	c.busy++
	if w.cond.L != nil {
		w.cond.Signal()
	}
}
