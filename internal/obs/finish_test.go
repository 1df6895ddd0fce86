package obs

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// A span shaped like a client fetch's — Start, a request ID, two attrs,
// five phases, two DistributeJoules calls, the idle account and Finish —
// costs the span alone on a tracer with no finish hook: its attributes and
// six phases fit inline, Finish hands the span itself to the ring, and
// nothing builds its SpanData until something reads it.
func TestSpanLifecycleAllocs(t *testing.T) {
	tr := NewTracer(16)
	now := time.Now()
	n := testing.AllocsPerRun(1000, func() {
		s := tr.Start("fetch")
		s.SetReqID(0xabc)
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
	if n > 1 {
		t.Errorf("client-shaped span: %v allocations, want at most 1", n)
	}
}

// A span stays in the 896-byte size class with its seven attribute slots:
// an eighth would move every span to the next class, 1,024 bytes.
func TestSpanSize(t *testing.T) {
	if size := unsafe.Sizeof(Span{}); size > 896 {
		t.Errorf("Span is %d bytes, want at most 896", size)
	}
}

// eagerAttrs is the attribute map SetAttr used to keep: every write lands
// in it at once, the last write of a key winning.
type eagerAttrs map[string]string

func (m eagerAttrs) set(key, value string) { m[key] = value }
func (m eagerAttrs) setReqID(id uint64)    { m["req_id"] = ReqID(id) }

// Whatever a span's attributes were set through — keys written more than
// once, more keys than it keeps in place, the request ID through SetReqID
// before and after a SetAttr of req_id — every reader builds the SpanData
// the eager map gave: Snapshot, AppendSnapshot, Data before and after
// Finish, and the finish hook.
func TestSpanDataBuiltOnRead(t *testing.T) {
	type op struct {
		key, value string
		id         uint64
	}
	reqID := func(id uint64) op { return op{key: "req_id", id: id} }
	cases := map[string][]op{
		"none":        nil,
		"inline":      {{key: "name", value: "f.xml"}, {key: "mode", value: "raw"}},
		"duplicates":  {{key: "a", value: "1"}, {key: "b", value: "2"}, {key: "a", value: "3"}, {key: "b", value: "4"}, {key: "a", value: "5"}},
		"reqid only":  {reqID(0xabc)},
		"reqid last":  {{key: "req_id", value: "text"}, reqID(7)},
		"attr last":   {reqID(7), {key: "req_id", value: "text"}, {key: "x", value: "y"}},
		"reqid twice": {reqID(1), {key: "k", value: "v"}, reqID(0xffffffffffffffff)},
	}
	var spill []op
	for i := 0; i < 12; i++ {
		spill = append(spill, op{key: fmt.Sprintf("k%d", i), value: fmt.Sprint(i)})
		if i == 3 {
			spill = append(spill, reqID(99))
		}
	}
	// Rewrite keys on both sides of the seventh, then the request ID as
	// an eighth-or-later key, then through SetReqID again.
	spill = append(spill, op{key: "k2", value: "again"}, op{key: "k10", value: "again"},
		op{key: "req_id", value: "late"}, op{key: "k11", value: "last"}, reqID(5), op{key: "k6", value: "6'"})
	cases["spill"] = spill
	cases["spill then reqid"] = append(slices.Clone(spill[:13]), reqID(3))

	for name, ops := range cases {
		t.Run(name, func(t *testing.T) {
			tr := NewTracer(2)
			var hooked SpanData
			tr.SetOnFinish(func(d SpanData) { hooked = d })
			s := tr.Start("serve")
			want := eagerAttrs{}
			for _, o := range ops {
				if o.value == "" {
					s.SetReqID(o.id)
					want.setReqID(o.id)
				} else {
					s.SetAttr(o.key, o.value)
					want.set(o.key, o.value)
				}
			}
			s.Phase("read-request", "", time.Now(), time.Millisecond, 0)
			var wantAttrs map[string]string
			if len(ops) > 0 {
				wantAttrs = want
			}
			check := func(reader string, d SpanData) {
				t.Helper()
				if !reflect.DeepEqual(d.Attrs, wantAttrs) {
					t.Errorf("%s: attrs %v, want %v", reader, d.Attrs, wantAttrs)
				}
				if d.Name != "serve" || len(d.Phases) != 1 {
					t.Errorf("%s: span %+v", reader, d)
				}
			}
			check("Data before Finish", s.Data())
			s.Finish()
			check("Data", s.Data())
			check("hook", hooked)
			check("Snapshot", tr.Snapshot()[0])
			check("AppendSnapshot", tr.AppendSnapshot(nil)[0])
			// Two reads build two maps: a reader writing into its own
			// changes no other reader's.
			a, b := tr.Snapshot()[0], tr.Snapshot()[0]
			if a.Attrs != nil {
				a.Attrs["mutated"] = "x"
				if _, ok := b.Attrs["mutated"]; ok {
					t.Error("two snapshots share one attribute map")
				}
			}
		})
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
