package simnet

import (
	"math/bits"
	"time"
)

// The clock's free lists, all guarded by its lock: waiters for parks,
// notices for deliveries and close markers, launches for queued starts,
// and segments for written bytes. A run of thousands of one-fetch
// handhelds takes its objects from them and puts them back, instead of
// leaving each to the collector. The bounds: a write segment is a power of
// two from 512 B to 64 KiB (a larger write gets a segment of its own size
// that is not kept), and what a full list is handed is dropped.
const (
	maxFree       = 4096 // waiters, notices, and launches
	segMinShift   = 9
	segClasses    = 8
	maxFreeSegMem = 4 << 20
)

// pop takes the last entry off free list l, reporting false when it is
// empty.
func pop[T any](l *[]T) (T, bool) {
	var zero T
	n := len(*l)
	if n == 0 {
		return zero, false
	}
	x := (*l)[n-1]
	(*l)[n-1] = zero
	*l = (*l)[:n-1]
	return x, true
}

// waiterLocked takes a waiter for a park of the calling goroutine.
func (c *Clock) waiterLocked() *waiter {
	w, ok := pop(&c.waiters)
	if !ok {
		return &waiter{c: c}
	}
	w.woken, w.err = false, nil
	return w
}

// timeoutLocked queues w's timeout d of virtual time from now.
func (c *Clock) timeoutLocked(d time.Duration, w *waiter) {
	w.timer = c.kern.ScheduleWake(d, w)
}

// noticeLocked takes a notice of seg (nil for the close marker) for to.
func (c *Clock) noticeLocked(to *endpoint, seg []byte) *notice {
	n, ok := pop(&c.notices)
	if !ok {
		n = new(notice)
	}
	n.to, n.seg = to, seg
	return n
}

// launch is a start GoAfter queued: the kernel event that hands fn to a
// ledger goroutine when it fires, in place of a goroutine parked until
// then. Launches come from the clock's free list and return to it once
// they have fired.
type launch struct {
	c  *Clock
	fn Starter
}

// launchLocked takes a launch of fn.
func (c *Clock) launchLocked(fn Starter) *launch {
	l, ok := pop(&c.launches)
	if !ok {
		l = &launch{c: c}
	}
	l.fn = fn
	return l
}

// Wake starts the launch's fn, under the clock lock like every kernel
// event.
func (l *launch) Wake() {
	c, fn := l.c, l.fn
	l.fn = nil
	if len(c.launches) < maxFree {
		c.launches = append(c.launches, l)
	}
	c.startLocked(fn)
}

// segLocked takes a segment of n > 0 bytes for a write's payload: from the
// free list of its power-of-two class, or freshly made.
func (c *Clock) segLocked(n int) []byte {
	c.segsHeld++
	k := max(bits.Len(uint(n-1)), segMinShift) - segMinShift
	if k >= segClasses {
		return make([]byte, n)
	}
	if seg, ok := pop(&c.segs[k]); ok {
		c.segFree -= cap(seg)
		return seg[:n]
	}
	return make([]byte, n, 1<<(k+segMinShift))
}

// putSegLocked returns a segment once its bytes have been read or
// dropped, keeping it while the free list has room.
func (c *Clock) putSegLocked(seg []byte) {
	c.segsHeld--
	k := bits.Len(uint(cap(seg)-1)) - segMinShift
	if k >= segClasses || c.segFree+cap(seg) > maxFreeSegMem {
		return
	}
	c.segs[k] = append(c.segs[k], seg[:0])
	c.segFree += cap(seg)
}

// Segments reports the clock's write segments: held ones, taken by a
// write and not yet returned (in flight, or buffered unread), and free
// ones, waiting on the free lists.
func (c *Clock) Segments() (held, free int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range c.segs {
		free += len(l)
	}
	return c.segsHeld, free
}
