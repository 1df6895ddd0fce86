package export

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestEventJSONGolden pins the wire schema byte for byte — field names and
// field order are a stable contract (README "Telemetry and calibration").
func TestEventJSONGolden(t *testing.T) {
	e := Event{
		Time:             "2026-08-08T00:00:00Z",
		VNS:              1500000,
		Span:             "fetch",
		ReqID:            "0000000000000001",
		Name:             "nes96.xml",
		Scheme:           "gzip",
		Mode:             "selective",
		Device:           "ipaq-11mbps",
		LinkBps:          600000,
		Outcome:          "ok",
		RawBytes:         1000000,
		WireBytes:        400000,
		Blocks:           8,
		BlocksCompressed: 6,
		Attempts:         2,
		ResumedBytes:     128000,
		DurNS:            2000000,
		Phases:           []PhaseSum{{Name: "recv", Class: obs.ClassRadio, NS: 1000, Bytes: 400000, Joules: 1.5}},
		RadioJ:           1.9,
		CPUJ:             0.22,
		IdleJ:            0.8,
	}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"time":"2026-08-08T00:00:00Z","v_ns":1500000,"span":"fetch",` +
		`"req_id":"0000000000000001","name":"nes96.xml","scheme":"gzip","mode":"selective",` +
		`"device":"ipaq-11mbps","link_bps":600000,"outcome":"ok","raw_bytes":1000000,` +
		`"wire_bytes":400000,"blocks":8,"blocks_compressed":6,"attempts":2,"resumed_bytes":128000,` +
		`"dur_ns":2000000,"phases":[{"name":"recv","class":"radio","ns":1000,"bytes":400000,"joules":1.5}],` +
		`"radio_j":1.9,"cpu_j":0.22,"idle_j":0.8}`
	if string(raw) != golden {
		t.Errorf("schema drift:\n--- got ---\n%s\n--- want ---\n%s", raw, golden)
	}
}

// TestFoldPhases: retries repeat phase names; folding must merge by
// (name, class) in first-appearance order and sum the numbers.
func TestFoldPhases(t *testing.T) {
	got := FoldPhases([]obs.Phase{
		{Name: "dial", Class: obs.ClassRadio, Duration: time.Millisecond, Joules: 0.1},
		{Name: "recv", Class: obs.ClassRadio, Duration: 2 * time.Millisecond, Bytes: 100, Joules: 1},
		{Name: "backoff", Duration: 4 * time.Millisecond},
		{Name: "recv", Class: obs.ClassRadio, Start: time.Millisecond, Duration: 3 * time.Millisecond, Bytes: 200, Joules: 2},
	})
	want := []PhaseSum{
		{Name: "dial", Class: obs.ClassRadio, NS: 1e6, Joules: 0.1},
		{Name: "recv", Class: obs.ClassRadio, NS: 5e6, Bytes: 300, Joules: 3},
		{Name: "backoff", NS: 4e6},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FoldPhases = %+v, want %+v", got, want)
	}
	if FoldPhases(nil) != nil {
		t.Error("no phases must fold to nil, not an empty slice")
	}
}

// TestFromSpan: attributes become identity fields, charged phases become
// the per-class joule totals, and a failed span carries its error as the
// outcome.
func TestFromSpan(t *testing.T) {
	tr := obs.NewTracer(2)
	sp := tr.Start("serve")
	sp.SetAttr("req_id", obs.ReqID(7))
	sp.SetAttr("name", "f")
	sp.SetAttr("scheme", "gzip")
	sp.SetAttr("mode", "ondemand")
	sp.Phase("send", obs.ClassRadio, time.Now(), time.Millisecond, 500)
	sp.DistributeJoules(obs.ClassRadio, 2.5)
	sp.AccountPhase("idle", obs.ClassIdle, 0.5)
	sp.Finish()
	e := FromSpan(tr.Snapshot()[0])

	if e.Span != "serve" || e.ReqID != obs.ReqID(7) || e.Name != "f" ||
		e.Scheme != "gzip" || e.Mode != "ondemand" || e.Outcome != "ok" {
		t.Errorf("identity fields wrong: %+v", e)
	}
	if e.Time == "" || e.DurNS < 0 {
		t.Errorf("wall clock fields missing: time=%q dur=%d", e.Time, e.DurNS)
	}
	if e.RadioJ != 2.5 || e.IdleJ != 0.5 || e.CPUJ != 0 {
		t.Errorf("joules = %v/%v/%v, want 2.5/0/0.5", e.RadioJ, e.CPUJ, e.IdleJ)
	}
	if e.TotalJoules() != 3.0 {
		t.Errorf("total = %v, want 3", e.TotalJoules())
	}

	spErr := tr.Start("serve")
	spErr.Fail(errBoom{})
	spErr.Finish()
	if e := FromSpan(tr.Snapshot()[1]); e.Outcome != "boom" {
		t.Errorf("failed span outcome = %q, want boom", e.Outcome)
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

// TestCanonicalize: wall time stripped, CPU phases dropped, deterministic
// (VNS, ReqID, Span) order, input untouched.
func TestCanonicalize(t *testing.T) {
	in := []Event{
		{Time: "t2", VNS: 20, Span: "fetch", ReqID: "b"},
		{Time: "t1", VNS: 10, Span: "serve", ReqID: "a",
			Phases: []PhaseSum{
				{Name: "recv", Class: obs.ClassRadio, NS: 1},
				{Name: "decompress", Class: obs.ClassCPU, NS: 2},
			}},
		{Time: "t0", VNS: 10, Span: "fetch", ReqID: "a"},
	}
	got := Canonicalize(in)
	if in[0].Time != "t2" {
		t.Fatal("Canonicalize mutated its input")
	}
	wantOrder := []string{"fetch", "serve", "fetch"}
	for i, e := range got {
		if e.Time != "" {
			t.Errorf("event %d kept wall time %q", i, e.Time)
		}
		if e.Span != wantOrder[i] {
			t.Errorf("order[%d] = %s/%s, want span %s", i, e.ReqID, e.Span, wantOrder[i])
		}
	}
	if got[0].ReqID != "a" || got[1].ReqID != "a" || got[2].ReqID != "b" {
		t.Errorf("req order = %s,%s,%s, want a,a,b", got[0].ReqID, got[1].ReqID, got[2].ReqID)
	}
	if len(got[1].Phases) != 1 || got[1].Phases[0].Name != "recv" {
		t.Errorf("CPU phase not dropped: %+v", got[1].Phases)
	}
}

// TestJSONLRoundTrip: Write then Read must reproduce the events exactly,
// tolerating blank lines between objects.
func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{VNS: 1, Span: "fetch", Outcome: "ok", RawBytes: 10, RadioJ: 1.25},
		{VNS: 2, Span: "serve", Outcome: "busy"},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Fatalf("wrote %d lines, want 2", lines)
	}
	got, err := ReadJSONL(strings.NewReader(buf.String() + "\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("round trip mismatch:\n%+v\nvs\n%+v", got, events)
	}
	if _, err := ReadJSONL(strings.NewReader(`{"v_ns": "not a number"}`)); err == nil {
		t.Error("malformed stream must error")
	}
}

// blockingWriter blocks every Write until released, signalling when the
// first Write begins — the lever for making the drop path deterministic.
type blockingWriter struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
	buf     bytes.Buffer
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.started) })
	<-w.release
	return w.buf.Write(p)
}

// TestSinkDeliversAndRings: events reach the writer as JSONL and the ring
// keeps the most recent events oldest-first.
func TestSinkDeliversAndRings(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf, 16, 4)
	for i := 1; i <= 6; i++ {
		s.Record(Event{VNS: int64(i), Span: "fetch"})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 || s.Recorded() != 6 || s.Dropped() != 0 {
		t.Fatalf("drained %d events, recorded=%d dropped=%d", len(got), s.Recorded(), s.Dropped())
	}
	recent := s.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recent))
	}
	for i, e := range recent {
		if e.VNS != int64(i+3) {
			t.Errorf("ring[%d].VNS = %d, want %d (oldest first)", i, e.VNS, i+3)
		}
	}
}

// TestSinkDropsWhenFull: with the drain goroutine wedged in a Write and
// the buffer full, Record must drop and count instead of blocking, and
// the bound counters must agree.
func TestSinkDropsWhenFull(t *testing.T) {
	w := &blockingWriter{started: make(chan struct{}), release: make(chan struct{})}
	s := NewSink(w, 1, 4)
	reg := obs.NewRegistry()
	s.Bind(reg)

	// The first event is larger than the drain's bufio buffer, so its
	// encode writes through to the wedged writer instead of being absorbed.
	s.Record(Event{VNS: 1, Name: strings.Repeat("x", 8192)})
	<-w.started
	s.Record(Event{VNS: 2}) // fills the 1-slot buffer
	s.Record(Event{VNS: 3}) // must drop
	if got := s.Dropped(); got != 1 {
		t.Errorf("Dropped = %d, want 1", got)
	}
	close(w.release)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Recorded() != 2 {
		t.Errorf("Recorded = %d, want 2", s.Recorded())
	}
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		switch c.Name {
		case "export_events_total":
			if c.Value != 2 {
				t.Errorf("export_events_total = %d, want 2", c.Value)
			}
		case "export_events_dropped_total":
			if c.Value != 1 {
				t.Errorf("export_events_dropped_total = %d, want 1", c.Value)
			}
		}
	}
	got, err := ReadJSONL(&w.buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("writer got %d events, want 2", len(got))
	}
}

// TestSinkCloseSemantics: Record after Close drops instead of panicking,
// double Close is safe, and a nil sink absorbs everything.
func TestSinkCloseSemantics(t *testing.T) {
	s := NewSink(nil, 4, 4)
	s.Record(Event{VNS: 1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.Record(Event{VNS: 2})
	if s.Dropped() != 1 || s.Recorded() != 1 {
		t.Errorf("after close: recorded=%d dropped=%d, want 1/1", s.Recorded(), s.Dropped())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(s.Recent()) != 1 {
		t.Errorf("ring lost the pre-close event")
	}

	var nilSink *Sink
	nilSink.Record(Event{})
	if nilSink.Recent() != nil || nilSink.Recorded() != 0 || nilSink.Dropped() != 0 || nilSink.Close() != nil {
		t.Error("nil sink must absorb all operations")
	}
}
