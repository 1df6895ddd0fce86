package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// TestTracerRingEviction fills a small ring past capacity and checks the
// survivors are the most recently finished spans, oldest first.
func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	for i := 1; i <= 5; i++ {
		sp := tr.Start(fmt.Sprintf("span-%d", i))
		sp.Finish()
	}
	got := tr.Snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d spans, want 3", len(got))
	}
	for i, want := range []string{"span-3", "span-4", "span-5"} {
		if got[i].Name != want {
			t.Errorf("slot %d = %q, want %q", i, got[i].Name, want)
		}
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d, want 3", tr.Len())
	}
	// IDs are monotone, so eviction order is also ID order.
	if !(got[0].ID < got[1].ID && got[1].ID < got[2].ID) {
		t.Errorf("snapshot not in finish order: ids %d, %d, %d", got[0].ID, got[1].ID, got[2].ID)
	}
}

// TestSpanPhasesAndAttrs exercises the recording API, including from a
// second goroutine the way the client's decompressor records phases.
func TestSpanPhasesAndAttrs(t *testing.T) {
	tr := NewTracer(4)
	sp := tr.Start("fetch")
	sp.SetAttr("name", "f.xml")
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sp.Phase("decompress", ClassCPU, start, 5*time.Millisecond, 1000)
	}()
	sp.Phase("recv", ClassRadio, start, 10*time.Millisecond, 2000)
	wg.Wait()
	sp.Fail(errors.New("boom"))
	sp.Finish()

	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	d := spans[0]
	if d.Attrs["name"] != "f.xml" || d.Err != "boom" || len(d.Phases) != 2 {
		t.Fatalf("span = %+v", d)
	}
	if d.End.Before(d.Start) {
		t.Error("End precedes Start")
	}
}

// TestDistributeJoules checks byte-weighted attribution, the exact-total
// guarantee, and the synthetic phase fallback.
func TestDistributeJoules(t *testing.T) {
	tr := NewTracer(1)
	sp := tr.Start("fetch")
	now := time.Now()
	sp.Phase("header", ClassRadio, now, time.Millisecond, 100)
	sp.Phase("recv", ClassRadio, now, time.Millisecond, 300)
	sp.Phase("decompress", ClassCPU, now, 2*time.Millisecond, 0)
	sp.Phase("backoff", "", now, time.Millisecond, 0)

	sp.DistributeJoules(ClassRadio, 4.0) // byte-weighted: 1 J + 3 J
	sp.DistributeJoules(ClassCPU, 0.5)   // single phase takes it all
	sp.AccountPhase("idle", ClassIdle, 0.25)
	sp.DistributeJoules("unseen", 0.125) // no phase: synthetic entry
	sp.Finish()

	d := tr.Snapshot()[0]
	by := d.JoulesByClass()
	if math.Abs(by[ClassRadio]-4.0) > 1e-12 {
		t.Errorf("radio = %g, want 4", by[ClassRadio])
	}
	if math.Abs(by[ClassCPU]-0.5) > 1e-12 {
		t.Errorf("cpu = %g, want 0.5", by[ClassCPU])
	}
	if math.Abs(by[ClassIdle]-0.25) > 1e-12 {
		t.Errorf("idle = %g, want 0.25", by[ClassIdle])
	}
	if math.Abs(d.TotalJoules()-4.875) > 1e-12 {
		t.Errorf("total = %g, want 4.875", d.TotalJoules())
	}
	// Byte weighting: header got 1/4 of the radio energy.
	if math.Abs(d.Phases[0].Joules-1.0) > 1e-12 {
		t.Errorf("header joules = %g, want 1", d.Phases[0].Joules)
	}
	// The unclassified backoff phase carries no energy.
	if d.Phases[3].Joules != 0 {
		t.Errorf("backoff joules = %g, want 0", d.Phases[3].Joules)
	}
}

// TestDistributeJoulesDurationWeight: with no bytes anywhere, weights fall
// back to duration.
func TestDistributeJoulesDurationWeight(t *testing.T) {
	tr := NewTracer(1)
	sp := tr.Start("s")
	now := time.Now()
	sp.Phase("a", ClassCPU, now, 1*time.Millisecond, 0)
	sp.Phase("b", ClassCPU, now, 3*time.Millisecond, 0)
	sp.DistributeJoules(ClassCPU, 8)
	ph := sp.Phases()
	if math.Abs(ph[0].Joules-2) > 1e-9 || math.Abs(ph[1].Joules-6) > 1e-9 {
		t.Errorf("duration weighting wrong: %g, %g", ph[0].Joules, ph[1].Joules)
	}
}

// TestNilTracerAndSpan: the nil paths must absorb everything.
func TestNilTracerAndSpan(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x")
	if sp != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	sp.SetAttr("k", "v")
	sp.Phase("p", ClassRadio, time.Now(), time.Second, 1)
	sp.PhaseDetail("p", "", "d", time.Now(), 0, 0)
	sp.AccountPhase("i", ClassIdle, 1)
	sp.DistributeJoules(ClassRadio, 1)
	sp.Fail(errors.New("x"))
	sp.Finish()
	if ph := sp.Phases(); ph != nil {
		t.Error("nil span must read zero")
	}
	if tr.Snapshot() != nil || tr.Len() != 0 {
		t.Error("nil tracer must read empty")
	}
}

// TestSpanDataJSON: the wire shape /tracez and hhfetch -trace emit.
func TestSpanDataJSON(t *testing.T) {
	tr := NewTracer(1)
	sp := tr.Start("fetch")
	sp.SetAttr("req_id", ReqID(0xabc))
	sp.Phase("recv", ClassRadio, time.Now(), time.Millisecond, 42)
	sp.AccountPhase("idle", ClassIdle, 0.5)
	sp.Finish()
	raw, err := json.Marshal(tr.Snapshot()[0])
	if err != nil {
		t.Fatal(err)
	}
	var round SpanData
	if err := json.Unmarshal(raw, &round); err != nil {
		t.Fatal(err)
	}
	if round.Attrs["req_id"] != "0000000000000abc" {
		t.Errorf("req_id = %q", round.Attrs["req_id"])
	}
	if len(round.Phases) != 2 || round.Phases[0].Bytes != 42 || round.Phases[1].Joules != 0.5 {
		t.Errorf("phases = %+v", round.Phases)
	}
}

// TestPhasesIsACopy: changing an open span after Phases must not alias.
func TestPhasesIsACopy(t *testing.T) {
	tr := NewTracer(1)
	sp := tr.Start("s")
	sp.Phase("a", ClassCPU, time.Now(), time.Millisecond, 0)
	ph := sp.Phases()
	sp.DistributeJoules(ClassCPU, 1) // charges phase a in place
	sp.Phase("b", "", time.Now(), 0, 0)
	if len(ph) != 1 || ph[0].Joules != 0 {
		t.Errorf("Phases must copy an open span's phases, got %+v", ph)
	}
}
