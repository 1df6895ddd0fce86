package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// modelEvent is one event of modelQueue: its key and the id it fires
// with, and whether it was cancelled.
type modelEvent struct {
	at   time.Duration
	seq  uint64
	id   int
	dead bool
}

// modelQueue is the kernel as it was before Cancel: a sorted slice in which
// a cancelled event stays queued and, at its turn, moves the clock to its
// time and runs nothing.
type modelQueue struct {
	now time.Duration
	seq uint64
	q   []modelEvent
}

func (m *modelQueue) push(d time.Duration, id int) uint64 {
	m.seq++
	e := modelEvent{at: m.now + max(d, 0), seq: m.seq, id: id}
	i, _ := slices.BinarySearchFunc(m.q, e, func(a, b modelEvent) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(a.seq) - int(b.seq)
	})
	m.q = slices.Insert(m.q, i, e)
	return e.seq
}

// cancel marks the event of seq dead, reporting whether it was queued and
// alive.
func (m *modelQueue) cancel(seq uint64) bool {
	for i := range m.q {
		if m.q[i].seq == seq {
			was := !m.q[i].dead
			m.q[i].dead = true
			return was
		}
	}
	return false
}

// step runs events until one that is alive has run, reporting its id;
// false when only dead ones were left, which it has run.
func (m *modelQueue) step() (int, bool) {
	for len(m.q) > 0 {
		e := m.q[0]
		m.q = m.q[1:]
		m.now = e.at
		if !e.dead {
			return e.id, true
		}
	}
	return 0, false
}

func (m *modelQueue) live() int {
	n := 0
	for _, e := range m.q {
		if !e.dead {
			n++
		}
	}
	return n
}

// checkKernelAgainstModel plays ops, a byte script, on a kernel and on
// modelQueue: each byte picks Schedule, ScheduleWake, Cancel of an earlier
// wake, or Step, and the byte after it the delay or the wake to cancel.
// The events that survive must run in the model's order at the model's
// times, Cancel must answer as the model does, and the clock must come to
// rest where the model's does.
func checkKernelAgainstModel(t *testing.T, ops []byte) {
	t.Helper()
	k := NewKernel()
	var m modelQueue
	var fired []int
	type wake struct {
		t   Timer
		seq uint64
	}
	var wakes []wake
	id := 0
	step := func() {
		want, ok := m.step()
		if got := k.Step(); got != ok {
			t.Fatalf("Step reported %v, the model %v", got, ok)
		}
		if ok && (len(fired) == 0 || fired[len(fired)-1] != want) {
			t.Fatalf("Step ran %v, the model runs event %d", fired, want)
		}
		if k.Now() != m.now {
			t.Fatalf("after a step the clock reads %v, the model's %v", k.Now(), m.now)
		}
	}
	for len(ops) >= 2 {
		op, arg := ops[0], ops[1]
		ops = ops[2:]
		d := time.Duration(arg%8) * time.Millisecond // few values: many ties
		switch op % 4 {
		case 0:
			i := id
			k.Schedule(d, func() { fired = append(fired, i) })
			m.push(d, i)
			id++
		case 1:
			w := &wakeLog{id, &fired}
			wakes = append(wakes, wake{k.ScheduleWake(d, w), m.push(d, id)})
			id++
		case 2:
			if len(wakes) == 0 {
				continue
			}
			w := wakes[int(arg)%len(wakes)]
			if got, want := k.Cancel(w.t), m.cancel(w.seq); got != want {
				t.Fatalf("Cancel reported %v, the model %v", got, want)
			}
		case 3:
			step()
		}
		if k.Pending() != m.live() {
			t.Fatalf("%d events pending, the model has %d alive", k.Pending(), m.live())
		}
	}
	for len(m.q) > 0 {
		step()
	}
	if k.Step() {
		t.Fatal("the kernel ran an event after the model ran out")
	}
	if k.Now() != m.now {
		t.Fatalf("at rest the clock reads %v, the model's %v", k.Now(), m.now)
	}
}

// TestCancelMatchesModel: random scripts of Schedule, ScheduleWake, Cancel
// and Step leave every surviving event its (time, order) and the clock at
// rest where a queue that kept its cancelled events would leave it.
func TestCancelMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 2*(1+rng.Intn(300)))
		rng.Read(ops)
		checkKernelAgainstModel(t, ops)
	}
}

// A cancelled wake never runs, whether it is the next event due or buried
// in the heap, and cancelling it again, or after it ran, reports false.
func TestCancelRemovesTheWake(t *testing.T) {
	k := NewKernel()
	var fired []int
	a := k.ScheduleWake(time.Millisecond, &wakeLog{1, &fired})
	b := k.ScheduleWake(5*time.Millisecond, &wakeLog{2, &fired})
	k.ScheduleWake(3*time.Millisecond, &wakeLog{3, &fired})
	if !k.Cancel(a) || !k.Cancel(b) || k.Cancel(a) || k.Cancel(Timer{}) {
		t.Fatal("Cancel did not report a queued wake once and nothing else")
	}
	if end := k.Run(); !slices.Equal(fired, []int{3}) || end != 5*time.Millisecond {
		t.Fatalf("ran %v ending at %v, want [3] ending at the cancelled 5ms", fired, end)
	}
	c := k.ScheduleWake(0, &wakeLog{4, &fired})
	k.Run()
	if k.Cancel(c) {
		t.Fatal("Cancel of a wake that ran reported true")
	}
}

// FuzzKernelCancel holds the kernel to the model on arbitrary scripts.
func FuzzKernelCancel(f *testing.F) {
	f.Add([]byte{1, 3, 1, 5, 2, 0, 3, 0, 0, 7, 2, 1, 3, 0})
	f.Add([]byte{1, 7, 3, 0, 2, 0, 1, 1, 1, 1, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkKernelAgainstModel(t, ops)
	})
}
