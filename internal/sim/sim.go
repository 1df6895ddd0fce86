// Package sim is a small discrete-event simulation kernel: a virtual clock
// and an ordered event queue. The device, link and meter models run on it,
// which makes every experiment deterministic and independent of host
// wall-clock speed — the substitution for the paper's physical testbed.
package sim

import "time"

// Waker is what an event wakes when it needs no callback of its own: the
// concurrent driver's parked goroutines (internal/simnet) schedule
// themselves here without a closure per timer.
type Waker interface{ Wake() }

// event is a scheduled callback, or a Waker to wake; the queue holds them
// by value.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
	w   Waker
}

// before orders events by time, FIFO among simultaneous ones.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Kernel owns the virtual clock and the pending-event queue. The zero value
// is not usable; construct with NewKernel. A Kernel is single-threaded by
// design: all model code runs inside event callbacks.
type Kernel struct {
	now time.Duration
	pq  []event // binary min-heap on (at, seq)
	seq uint64
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
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
// Schedule's events as if it had been one.
func (k *Kernel) ScheduleWake(delay time.Duration, w Waker) {
	k.push(delay, event{w: w})
}

func (k *Kernel) push(delay time.Duration, e event) {
	if delay < 0 {
		delay = 0
	}
	k.seq++
	e.at, e.seq = k.now+delay, k.seq
	k.pq = append(k.pq, e)
	// Sift up.
	i := len(k.pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&k.pq[parent]) {
			break
		}
		k.pq[i] = k.pq[parent]
		i = parent
	}
	k.pq[i] = e
}

// pop removes the earliest event, which the caller has checked exists.
func (k *Kernel) pop() event {
	top := k.pq[0]
	n := len(k.pq) - 1
	e := k.pq[n]
	k.pq[n] = event{} // drop the references the vacated slot holds
	k.pq = k.pq[:n]
	if n == 0 {
		return top
	}
	// Sift the former last event down from the root.
	i := 0
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
		k.pq[i] = k.pq[child]
		i = child
	}
	k.pq[i] = e
	return top
}

// Run executes events until the queue drains, returning the final time.
func (k *Kernel) Run() time.Duration {
	for k.Step() {
	}
	return k.now
}

// Step pops and runs the single earliest event, advancing the clock to
// its time. It reports false (and leaves the clock alone) when the queue
// is empty. Concurrent drivers (internal/simnet) advance the kernel one
// event at a time through here, under their own lock.
func (k *Kernel) Step() bool {
	if len(k.pq) == 0 {
		return false
	}
	e := k.pop()
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
