// Package sim is a small discrete-event simulation kernel: a virtual clock
// and an ordered event queue. The device, link and meter models run on it,
// which makes every experiment deterministic and independent of host
// wall-clock speed — the substitution for the paper's physical testbed.
package sim

import (
	"fmt"
	"time"
)

// Waker is what an event wakes when it needs no callback of its own: the
// concurrent driver's parked goroutines (internal/simnet) schedule
// themselves here without a closure per timer.
type Waker interface{ Wake() }

// event is a scheduled callback, or a Waker to wake; the queue holds them
// by value. slot is the event's entry in the kernel's position table.
type event struct {
	at   time.Duration
	seq  uint64
	fn   func()
	w    Waker
	slot int32
}

// before orders events by time, FIFO among simultaneous ones.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Timer names a queued wake for Cancel: the slot of the kernel's position
// table that follows the event through the heap, and the event's sequence
// number, which tells it from a later event in the same slot. The zero
// Timer names nothing; a Timer taken before a Reset names nothing after it.
type Timer struct {
	slot int32
	seq  uint64
}

// Kernel owns the virtual clock and the pending-event queue. The zero value
// is not usable; construct with NewKernel. A Kernel is single-threaded by
// design: all model code runs inside event callbacks.
type Kernel struct {
	now time.Duration
	pq  []event // binary min-heap on (at, seq)
	seq uint64
	// at[slot] is the heap index of the queued event holding slot, -1 for
	// a slot on the free list; every move in the heap keeps it current, so
	// Cancel finds its event without a search.
	at   []int32
	free []int32
	// horizon is the latest time of a cancelled event. A cancelled event
	// would have run into nothing, so the kernel owes its time only to a
	// clock that has run out of events: Step moves the clock there then.
	horizon time.Duration
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Reset returns an idle kernel to time zero, keeping the queue's storage
// for the next run. It refuses a kernel with events still queued.
func (k *Kernel) Reset() error {
	if len(k.pq) > 0 {
		return fmt.Errorf("sim: reset with %d events queued", len(k.pq))
	}
	k.now, k.seq, k.horizon = 0, 0, 0
	return nil
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Schedule enqueues fn to run after delay. Negative delays run "now" (the
// kernel never moves time backwards). Events at equal times run in
// scheduling order.
func (k *Kernel) Schedule(delay time.Duration, fn func()) {
	k.push(delay, event{fn: fn})
}

// At enqueues fn at absolute virtual time t (clamped to now).
func (k *Kernel) At(t time.Duration, fn func()) {
	k.Schedule(t-k.now, fn)
}

// ScheduleWake enqueues a call of w.Wake after delay, ordered among
// Schedule's events as if it had been one, and returns the Timer that
// cancels it.
func (k *Kernel) ScheduleWake(delay time.Duration, w Waker) Timer {
	return k.push(delay, event{w: w})
}

// Cancel removes the wake t names from the queue, in O(log n), and reports
// whether it was still queued. Every other event keeps its time and its
// order. The clock still owes the cancelled event its time: once the queue
// runs dry, Step moves the clock to the latest time it cancelled, so a run
// ends where it would have ended had the event stayed queued and woken
// nothing.
func (k *Kernel) Cancel(t Timer) bool {
	if t.seq == 0 {
		return false
	}
	i := k.at[t.slot]
	if i < 0 || k.pq[i].seq != t.seq {
		return false
	}
	k.horizon = max(k.horizon, k.pq[i].at)
	k.remove(int(i))
	return true
}

func (k *Kernel) push(delay time.Duration, e event) Timer {
	if delay < 0 {
		delay = 0
	}
	k.seq++
	e.at, e.seq = k.now+delay, k.seq
	if slot, ok := k.takeSlot(); ok {
		e.slot = slot
	} else {
		e.slot = int32(len(k.at))
		k.at = append(k.at, 0)
	}
	k.pq = append(k.pq, event{})
	k.up(len(k.pq)-1, e)
	return Timer{e.slot, e.seq}
}

// takeSlot takes a slot off the free list.
func (k *Kernel) takeSlot() (int32, bool) {
	n := len(k.free)
	if n == 0 {
		return 0, false
	}
	slot := k.free[n-1]
	k.free = k.free[:n-1]
	return slot, true
}

// set puts e at heap index i.
func (k *Kernel) set(i int, e event) {
	k.pq[i] = e
	k.at[e.slot] = int32(i)
}

// up places e at index i or above it, moving the parents it precedes down.
func (k *Kernel) up(i int, e event) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&k.pq[parent]) {
			break
		}
		k.set(i, k.pq[parent])
		i = parent
	}
	k.set(i, e)
}

// down places e at index i or below it, moving the children that precede
// it up.
func (k *Kernel) down(i int, e event) {
	n := len(k.pq)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && k.pq[child+1].before(&k.pq[child]) {
			child++
		}
		if !k.pq[child].before(&e) {
			break
		}
		k.set(i, k.pq[child])
		i = child
	}
	k.set(i, e)
}

// remove takes the event at heap index i out of the queue and returns it.
func (k *Kernel) remove(i int) event {
	e := k.pq[i]
	k.at[e.slot] = -1
	k.free = append(k.free, e.slot)
	n := len(k.pq) - 1
	last := k.pq[n]
	k.pq[n] = event{} // drop the references the vacated slot holds
	k.pq = k.pq[:n]
	if i < n {
		// The former last event fills the hole, from where it may have to
		// move either way.
		if i > 0 && last.before(&k.pq[(i-1)/2]) {
			k.up(i, last)
		} else {
			k.down(i, last)
		}
	}
	return e
}

// Run executes events until the queue drains, returning the final time.
func (k *Kernel) Run() time.Duration {
	for k.Step() {
	}
	return k.now
}

// Step pops and runs the single earliest event, advancing the clock to
// its time. When the queue is empty it reports false, and moves the clock
// on only to the latest time Cancel took out of the queue, if that is
// later. Concurrent drivers (internal/simnet) advance the kernel one event
// at a time through here, under their own lock.
func (k *Kernel) Step() bool {
	if len(k.pq) == 0 {
		k.now = max(k.now, k.horizon)
		return false
	}
	e := k.remove(0)
	k.now = e.at
	if e.w != nil {
		e.w.Wake()
	} else {
		e.fn()
	}
	return true
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return len(k.pq) }
