// Package sim is a small discrete-event simulation kernel: a virtual clock
// and an ordered event queue. The device, link and meter models run on it,
// which makes every experiment deterministic and independent of host
// wall-clock speed — the substitution for the paper's physical testbed.
package sim

import (
	"container/heap"
	"time"
)

// Event is a scheduled callback.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq // FIFO among simultaneous events
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Kernel owns the virtual clock and the pending-event queue. The zero value
// is not usable; construct with NewKernel. A Kernel is single-threaded by
// design: all model code runs inside event callbacks.
type Kernel struct {
	now time.Duration
	pq  eventHeap
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
	if delay < 0 {
		delay = 0
	}
	k.seq++
	heap.Push(&k.pq, &event{at: k.now + delay, seq: k.seq, fn: fn})
}

// At enqueues fn at absolute virtual time t (clamped to now).
func (k *Kernel) At(t time.Duration, fn func()) {
	k.Schedule(t-k.now, fn)
}

// Run executes events until the queue drains, returning the final time.
func (k *Kernel) Run() time.Duration {
	for len(k.pq) > 0 {
		e := heap.Pop(&k.pq).(*event)
		k.now = e.at
		e.fn()
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
	e := heap.Pop(&k.pq).(*event)
	k.now = e.at
	e.fn()
	return true
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return len(k.pq) }
