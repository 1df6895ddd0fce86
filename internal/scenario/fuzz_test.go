package scenario

import (
	"reflect"
	"testing"

	"repro/internal/simnet"
)

// FuzzScenarioSpec pins the parser's two safety contracts: it never
// panics on arbitrary bytes (specs are hand-edited files; a typo must
// produce a line-numbered error, not a crash), and every spec it does
// accept survives Parse(Format(spec)) == spec exactly, so rewriting a
// spec file is always lossless. Validate is driven too — it must be
// total over anything Parse accepts — and every spec it accepts must
// compile to a link schedule simnet accepts, paused at the start of each
// power-save window and running at its end. The seed corpus under
// testdata/fuzz covers every directive, the failure shapes the unit
// tests pin, and grammar near-misses.
func FuzzScenarioSpec(f *testing.F) {
	f.Add([]byte(fullSpec))
	f.Add([]byte("scenario x\n"))
	f.Add([]byte(""))
	f.Add([]byte("# only a comment\n\n"))
	f.Add([]byte("clients 5\nclients 6\n"))
	f.Add([]byte("file a ratio 2 size 100 ratio 3\n"))
	f.Add([]byte("linkat 1s rate 1e6\npowersave 2s 500ms\n"))
	f.Add([]byte("expect minok 0.5\nexpect minok 2\n"))
	f.Add([]byte("timeout 2562047h47m16.854775807s\n"))
	f.Add([]byte("fault 1e-300\nlink rate 1e308 latency 1ns jitter 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if s.Validate() == nil {
			checkSchedule(t, s)
		}
		out := Format(s)
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("Format produced unparseable spec: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round trip changed spec:\nfirst:  %#v\nsecond: %#v\nformatted:\n%s", s, again, out)
		}
	})
}

// checkSchedule holds a valid spec's compiled schedule to what the
// harness needs of it: simnet accepts it, the medium is paused when each
// power-save window starts, and the last phase leaves it running.
func checkSchedule(t *testing.T, s *Spec) {
	t.Helper()
	sched := s.Compile(1).Schedule
	if len(sched) > 0 {
		if _, err := simnet.NewSchedule(sched); err != nil {
			t.Fatalf("valid spec compiled to a schedule simnet refuses: %v\n%v", err, sched)
		}
		if sched[len(sched)-1].Rate <= 0 {
			t.Fatalf("schedule ends paused: %v", sched)
		}
	}
	for _, w := range s.PowerSave {
		rate := -1.0 // no phase has started by w.Start
		for _, p := range sched {
			if p.Start <= w.Start {
				rate = p.Rate
			}
		}
		if rate != 0 {
			t.Fatalf("powersave %s+%s: rate %g at its start, want 0 (schedule %v)", w.Start, w.Dur, rate, sched)
		}
	}
}
