package export

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// readAllocBound is what reading n bytes of JSONL may allocate in total: a
// fixed allowance plus 4 KiB per input byte. The densest stream, "{}" per
// event, reads at about 970 bytes allocated per byte (a 296-byte Event per
// 2 bytes, the decoder's copy of it and the slice's growth); what the bound
// catches is allocation that does not scale with the input.
func readAllocBound(n int) uint64 { return 1<<20 + 4096*uint64(n) }

// fuzzSpan is a finished span built from fuzz inputs: two phases that fold
// into one, an accounting phase, and the attributes FromSpan reads. Strings
// are made valid UTF-8, the only text JSON carries.
func fuzzSpan(span, attr, phase, class string, startNS, durNS, nbytes int64, joules float64, failed bool) obs.SpanData {
	valid := func(s string) string { return strings.ToValidUTF8(s, "\uFFFD") }
	span, attr, phase, class = valid(span), valid(attr), valid(phase), valid(class)
	start := time.Unix(0, startNS)
	d := obs.SpanData{
		Name:  span,
		Attrs: map[string]string{"req_id": attr, "name": attr + phase, "scheme": class, "mode": phase},
		Start: start,
		End:   start.Add(time.Duration(durNS)),
		Phases: []obs.Phase{
			{Name: phase, Class: class, Duration: time.Duration(durNS), Bytes: nbytes, Joules: joules},
			{Name: phase, Class: class, Duration: time.Duration(durNS), Bytes: nbytes, Joules: joules},
			{Name: "idle", Class: obs.ClassIdle, Joules: joules},
		},
	}
	if failed {
		d.Err = attr
	}
	return d
}

// finiteEvent reports whether every number of e can be written as JSON.
func finiteEvent(e Event) bool {
	fs := []float64{e.LinkBps, e.RadioJ, e.CPUJ, e.IdleJ}
	for _, p := range e.Phases {
		fs = append(fs, p.Joules)
	}
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// FuzzReadJSONL holds the wide-event reader to two things. An event made
// by FromSpan, written as JSONL, reads back unchanged (or, if one of its
// numbers is not finite, WriteJSONL refuses it rather than writing what
// cannot be read). And arbitrary bytes — a stale, truncated or hostile
// export file — never panic the reader, fail without returning events,
// and allocate no more than readAllocBound.
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte(`{"v_ns":0,"span":"fetch","outcome":"ok","raw_bytes":10,"wire_bytes":4,"dur_ns":1}`+"\n\n"),
		"fetch", "0000000000000001", "recv", obs.ClassRadio, int64(1.7e18), int64(2e6), int64(4000), 1.5, false)
	f.Add([]byte(`{"phases":[{},{},{}]}{}{}`), "serve", "", "", "", int64(0), int64(0), int64(0), 0.0, true)
	f.Fuzz(func(t *testing.T, data []byte, span, attr, phase, class string, startNS, durNS, nbytes int64, joules float64, failed bool) {
		want := FromSpan(fuzzSpan(span, attr, phase, class, startNS, durNS, nbytes, joules, failed))
		var buf bytes.Buffer
		err := WriteJSONL(&buf, []Event{want, want})
		switch {
		case !finiteEvent(want):
			if err == nil {
				t.Fatalf("wrote an event with a non-finite number: %q", buf.String())
			}
		case err != nil:
			t.Fatalf("WriteJSONL: %v", err)
		default:
			got, err := ReadJSONL(&buf)
			if err != nil || !reflect.DeepEqual(got, []Event{want, want}) {
				t.Fatalf("round trip: err %v\n got %+v\nwant %+v", err, got, want)
			}
		}

		var m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m1)
		events, err := ReadJSONL(bytes.NewReader(data))
		runtime.ReadMemStats(&m2)
		if got := m2.TotalAlloc - m1.TotalAlloc; got > readAllocBound(len(data)) {
			t.Fatalf("reading %d bytes allocated %d, bound %d", len(data), got, readAllocBound(len(data)))
		}
		if err != nil && events != nil {
			t.Fatalf("failed (%v) but returned %d events", err, len(events))
		}
	})
}
