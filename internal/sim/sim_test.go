package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	k.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	k.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	end := k.Run()
	if end != 30*time.Millisecond {
		t.Errorf("final time %v", end)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order %v", order)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(time.Second, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	var times []time.Duration
	var tick func()
	n := 0
	tick = func() {
		times = append(times, k.Now())
		n++
		if n < 5 {
			k.Schedule(100*time.Millisecond, tick)
		}
	}
	k.Schedule(0, tick)
	k.Run()
	if len(times) != 5 {
		t.Fatalf("got %d ticks", len(times))
	}
	for i, ts := range times {
		if ts != time.Duration(i)*100*time.Millisecond {
			t.Errorf("tick %d at %v", i, ts)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	k := NewKernel()
	k.Schedule(time.Second, func() {
		k.Schedule(-5*time.Second, func() {
			if k.Now() != time.Second {
				t.Errorf("negative delay moved time to %v", k.Now())
			}
		})
	})
	k.Run()
}

func TestAtAbsoluteTime(t *testing.T) {
	k := NewKernel()
	var at time.Duration
	k.At(time.Minute, func() { at = k.Now() })
	k.Run()
	if at != time.Minute {
		t.Errorf("ran at %v", at)
	}
}

func TestQuickRandomSchedulesOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		k := NewKernel()
		n := 200
		delays := make([]time.Duration, n)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(1000)) * time.Millisecond
		}
		var fired []time.Duration
		for _, d := range delays {
			d := d
			k.Schedule(d, func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if len(fired) != n {
			t.Fatalf("fired %d", len(fired))
		}
		if !sort.SliceIsSorted(fired, func(a, b int) bool { return fired[a] < fired[b] }) {
			t.Fatal("events fired out of order")
		}
	}
}
