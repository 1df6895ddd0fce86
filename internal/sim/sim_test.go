package sim

import (
	"math/rand"
	"slices"
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

// wakeLog is a Waker that records that it fired.
type wakeLog struct {
	id    int
	fired *[]int
}

func (w *wakeLog) Wake() { *w.fired = append(*w.fired, w.id) }

// TestWakersShareTheEventOrder: callbacks and wakers are one queue — time
// order, scheduling order among equal times — whichever kind an event is
// and however pushes and pops interleave. The model is a stable sort of
// what was scheduled.
func TestWakersShareTheEventOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 50; trial++ {
		k := NewKernel()
		type due struct {
			at time.Duration
			id int
		}
		var fired []int
		var model []due
		schedule := func(id int) {
			d := time.Duration(rng.Intn(8)) * time.Millisecond // few values: many ties
			model = append(model, due{k.Now() + d, id})
			if rng.Intn(2) == 0 {
				k.Schedule(d, func() { fired = append(fired, id) })
			} else {
				k.ScheduleWake(d, &wakeLog{id, &fired})
			}
		}
		id := 0
		for round := 0; round < 40; round++ {
			for n := rng.Intn(6); n > 0; n-- {
				schedule(id)
				id++
			}
			for n := rng.Intn(4); n > 0 && k.Step(); n-- {
			}
		}
		k.Run()
		// Nothing is scheduled before now, so whatever a Step already ran
		// sorts ahead of everything scheduled after it: the firing order is
		// one stable sort by time, ids being in scheduling order.
		sort.SliceStable(model, func(a, b int) bool { return model[a].at < model[b].at })
		if len(fired) != len(model) {
			t.Fatalf("trial %d: %d events fired, %d scheduled", trial, len(fired), len(model))
		}
		for i := range model {
			if fired[i] != model[i].id {
				t.Fatalf("trial %d: event %d to fire was %d, model says %d", trial, i, fired[i], model[i].id)
			}
		}
	}
}

// A waker event costs the queue's amortized growth and nothing else.
func TestScheduleWakeAllocs(t *testing.T) {
	k := NewKernel()
	var fired []int
	w := &wakeLog{fired: &fired}
	fired = make([]int, 0, 4096)
	n := testing.AllocsPerRun(1000, func() {
		k.ScheduleWake(time.Millisecond, w)
		k.ScheduleWake(time.Microsecond, w)
		k.Step()
		k.Step()
		fired = fired[:0]
	})
	if n != 0 {
		t.Errorf("two waker events scheduled and run: %v allocations, want 0", n)
	}
}

// Reset refuses a kernel with events queued; an idle one it returns to
// time zero, and the events scheduled after it run at the times and in
// the order a new kernel gives them.
func TestKernelReset(t *testing.T) {
	schedule := func(k *Kernel, fired *[]int) {
		for i, d := range []time.Duration{3, 1, 2, 1} {
			k.Schedule(d*time.Millisecond, func() { *fired = append(*fired, i) })
		}
	}
	var want []int
	fresh := NewKernel()
	schedule(fresh, &want)
	end := fresh.Run()

	k := NewKernel()
	k.Schedule(5*time.Millisecond, func() {})
	if err := k.Reset(); err == nil {
		t.Fatal("Reset with an event queued succeeded")
	}
	k.Run()
	if err := k.Reset(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 0 {
		t.Fatalf("after Reset the clock reads %v, want 0", k.Now())
	}
	var got []int
	schedule(k, &got)
	if e := k.Run(); e != end || !slices.Equal(got, want) {
		t.Fatalf("after Reset: order %v ending at %v, a new kernel gives %v ending at %v", got, e, want, end)
	}
}
