package obs

import (
	"errors"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// A span shaped like a client fetch's — Start, two attrs, five phases, two
// DistributeJoules calls, the idle account and Finish — costs the span and
// the attrs map (two allocations): its six phases fit inline. Finish hands
// both to the ring instead of copying them, and DistributeJoules allocates
// nothing.
func TestSpanLifecycleAllocs(t *testing.T) {
	tr := NewTracer(16)
	now := time.Now()
	n := testing.AllocsPerRun(1000, func() {
		s := tr.Start("fetch")
		s.SetAttr("name", "f.xml")
		s.SetAttr("scheme", "gzip")
		s.Phase("dial", ClassRadio, now, time.Millisecond, 0)
		s.Phase("header", ClassRadio, now, time.Millisecond, 100)
		s.Phase("recv", ClassRadio, now, 2*time.Millisecond, 3000)
		s.Phase("decompress", ClassCPU, now, time.Millisecond, 0)
		s.Phase("verify", ClassCPU, now, time.Millisecond, 0)
		s.DistributeJoules(ClassRadio, 0.5)
		s.DistributeJoules(ClassCPU, 0.25)
		s.AccountPhase("idle", ClassIdle, 0.125)
		s.Finish()
	})
	if n > 3 {
		t.Errorf("client-shaped span: %v allocations, want at most 3", n)
	}
}

// After Finish a span is immutable: no mutator changes what the ring, a
// Snapshot or the finish hook holds, even while a reader walks it (run
// under -race, a write into the shared phases or attrs is a reported
// race).
func TestFinishedSpanIsImmutable(t *testing.T) {
	tr := NewTracer(4)
	var hooked SpanData
	tr.SetOnFinish(func(d SpanData) { hooked = d })
	s := tr.Start("fetch")
	s.SetAttr("k", "v")
	now := time.Now()
	s.Phase("recv", ClassRadio, now, time.Millisecond, 10)
	s.Phase("decompress", ClassCPU, now, time.Millisecond, 0)
	s.Finish()
	want := tr.Snapshot()[0]
	want.Phases = slices.Clone(want.Phases)
	want.Attrs = maps.Clone(want.Attrs)

	snap := tr.Snapshot()[0]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = snap.TotalJoules()
			_ = snap.Attrs["k"]
			_ = hooked.Phases[0].Joules
		}
	}()
	for i := 0; i < 100; i++ {
		s.SetAttr("k", "changed")
		s.SetAttr("new", "attr")
		s.Phase("late", ClassRadio, now, time.Millisecond, 5)
		s.PhaseDetail("late", "", "detail", now, time.Millisecond, 5)
		s.AccountPhase("idle", ClassIdle, 1)
		s.DistributeJoules(ClassRadio, 1)
		s.DistributeJoules(ClassCPU, 1)
		s.Fail(errors.New("late"))
		s.Finish()
	}
	close(stop)
	wg.Wait()

	for name, got := range map[string]SpanData{"snapshot": snap, "hook": hooked, "ring": tr.Snapshot()[0], "data": s.Data()} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s changed after Finish:\n got %+v\nwant %+v", name, got, want)
		}
	}
	if n := tr.Len(); n != 1 {
		t.Errorf("ring holds %d spans after repeated Finish, want 1", n)
	}
}

// A reader appending to a finished span's phases gets its own array, so
// two readers of one span cannot write into each other's.
func TestFinishedPhasesAreClipped(t *testing.T) {
	tr := NewTracer(1)
	s := tr.Start("s")
	s.Phase("a", "", time.Now(), 0, 0)
	s.Finish()
	d := s.Data()
	if len(d.Phases) != cap(d.Phases) {
		t.Fatalf("finished phases: len %d cap %d, want them equal", len(d.Phases), cap(d.Phases))
	}
}
