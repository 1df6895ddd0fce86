package simnet

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// startOrder runs one script of starts and sleeps on a new clock, starting
// "early", "start" and "now" with start, and returns what ran in the order
// it ran, each with the virtual time it ran at. "start" is due at 5 ms
// like a sleeper queued before it and one queued after it, so the tie is
// broken by queue order alone. The script's body holds the clock at time
// zero until each step's event is queued, so that order does not depend on
// how the host schedules the goroutines it starts.
func startOrder(start func(c *Clock, d time.Duration, fn func())) []string {
	c := NewClock()
	var mu sync.Mutex
	var got []string
	mark := func(name string) func() {
		return func() {
			mu.Lock()
			defer mu.Unlock()
			got = append(got, fmt.Sprintf("%s@%v", name, c.Elapsed()))
		}
	}
	queued := func(n int) {
		for {
			c.mu.Lock()
			k := c.kern.Pending()
			c.mu.Unlock()
			if k >= n {
				return
			}
			runtime.Gosched()
		}
	}
	sleeper := func(d time.Duration, name string) {
		c.Go(func() {
			c.Sleep(d)
			mark(name)()
		})
	}
	c.Run(func() {
		sleeper(5*time.Millisecond, "before")
		queued(1)
		start(c, 5*time.Millisecond, mark("start"))
		queued(2)
		sleeper(5*time.Millisecond, "after")
		queued(3)
		start(c, 3*time.Millisecond, mark("early"))
		queued(4)
		start(c, 0, mark("now"))
	})
	c.WaitIdle()
	mu.Lock()
	defer mu.Unlock()
	return got
}

// A start GoAfter queues for d runs where Go + Sleep(d) would have woken:
// at the same virtual time, and among events due at the same instant in
// the order they were queued.
func TestGoAfterOrdersAsGoAndSleep(t *testing.T) {
	want := fmt.Sprint([]string{"now@0s", "early@3ms", "before@5ms", "start@5ms", "after@5ms"})
	goSleep := func(c *Clock, d time.Duration, fn func()) {
		c.Go(func() {
			c.Sleep(d)
			fn()
		})
	}
	for i := 0; i < 20; i++ {
		if got := fmt.Sprint(startOrder(goSleep)); got != want {
			t.Fatalf("Go + Sleep ran %v, want %v", got, want)
		}
		goAfter := func(c *Clock, d time.Duration, fn func()) { c.GoAfter(d, startFunc(fn)) }
		if got := fmt.Sprint(startOrder(goAfter)); got != want {
			t.Fatalf("GoAfter ran %v, want %v", got, want)
		}
	}
}

// waitGoroutines waits in real time until the process is back to at most
// n goroutines: those that a clock released exit on their own schedule.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the clock ran", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// A staggered fleet of starts runs on as many goroutines as are busy at
// once, and once the clock rests none of them is left: the process is
// back to its goroutines before the run and the clock resets. A fn that
// ends in runtime.Goexit gives its token back too, and a start queued
// from outside the ledger on a rested clock runs the clock on itself.
func TestRestedClockLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewClock()
	for pass := 0; pass < 2; pass++ {
		const n = 200
		var ran sync.WaitGroup
		ran.Add(n + 1)
		launched := make(chan struct{})
		c.Go(func() { <-launched })
		for i := 0; i < n; i++ {
			c.GoAfter(time.Duration(i)*time.Millisecond, startFunc(func() {
				defer ran.Done()
				c.Sleep(3 * time.Millisecond)
			}))
		}
		c.Go(func() {
			defer ran.Done()
			runtime.Goexit()
		})
		close(launched)
		ran.Wait()
		c.WaitIdle()
		if got := c.Elapsed(); got != (n+2)*time.Millisecond {
			t.Fatalf("pass %d: the last start slept until %v, want %v", pass, got, (n+2)*time.Millisecond)
		}
		// Three or four sleepers overlap; the gate and the Goexit each
		// hold one more at time zero.
		if s := c.Spawned(); s > 8 {
			t.Errorf("pass %d: %d goroutines for %d staggered starts, want at most 8", pass, s, n)
		}
		waitGoroutines(t, before)
		if err := c.Reset(); err != nil {
			t.Fatalf("pass %d: a rested clock does not reset: %v", pass, err)
		}
		if s := c.Spawned(); s != 0 {
			t.Errorf("pass %d: a reset clock reports %d goroutines spawned, want 0", pass, s)
		}
	}
	ran := make(chan time.Duration)
	c.GoAfter(time.Second, startFunc(func() { ran <- c.Elapsed() }))
	select {
	case got := <-ran:
		if got != time.Second {
			t.Errorf("a start queued on a rested clock ran at %v, want 1s", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a start queued on a rested clock never ran")
	}
	c.WaitIdle()
	waitGoroutines(t, before)
}

// A worker carries nothing from one fn into the next: the fn that ran
// before on the same goroutine has given its waiter back to the clock and
// its busy token up, so the next holds exactly its own.
func TestWorkerCarriesNothing(t *testing.T) {
	c := NewClock()
	var spawned, busy, waiters int
	c.Run(func() {
		// The body's worker takes the first start, which parks once.
		c.GoAfter(time.Millisecond, startFunc(func() { c.Sleep(time.Millisecond) }))
		c.GoAfter(5*time.Millisecond, startFunc(func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			spawned, busy, waiters = c.spawned, c.busy, len(c.waiters)
		}))
	})
	rested := make(chan struct{})
	go func() {
		defer close(rested)
		c.WaitIdle()
	}()
	select {
	case <-rested:
	case <-time.After(5 * time.Second):
		t.Fatal("the clock never came to rest: a busy token outlived its fn")
	}
	if spawned != 1 {
		t.Errorf("%d goroutines for three starts one after another, want 1", spawned)
	}
	if busy != 1 {
		t.Errorf("a reused worker's fn runs with %d busy tokens, want its own 1", busy)
	}
	if waiters != 1 {
		t.Errorf("%d waiters on the free list after the first fn's park, want 1", waiters)
	}
	if err := c.Reset(); err != nil {
		t.Fatal(err)
	}
}

// starts counts the times it was started.
type starts struct{ n int }

func (s *starts) Start() { s.n++ }

// A start on a warm clock allocates nothing: its event is a recycled
// launch, its goroutine an idle worker, and what it starts a pointer the
// caller already holds, as a harness handheld is. Go + Sleep, which it
// replaces, allocates the closure around fn, and so would a method value.
func TestGoAfterAllocs(t *testing.T) {
	c := NewClock()
	st := new(starts)
	var allocs float64
	c.Run(func() {
		step := func() {
			c.GoAfter(time.Millisecond, st)
			c.Sleep(2 * time.Millisecond)
		}
		for i := 0; i < 10; i++ {
			step()
		}
		allocs = testing.AllocsPerRun(200, step)
	})
	c.WaitIdle()
	if allocs != 0 {
		t.Errorf("a warm GoAfter start: %v allocations, want 0", allocs)
	}
	if st.n != 211 {
		t.Errorf("%d starts ran, want 211", st.n)
	}
}
