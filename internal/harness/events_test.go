package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/energy"
	"repro/internal/obs/export"
)

// TestEventStreamDeterministic is the telemetry half of the soak replay
// guarantee: the same seed must produce byte-identical canonical JSONL,
// including under fault injection and retries. This is the property the
// CI event-determinism gate (scripts/ci.sh) enforces end to end through
// the energysim binary.
func TestEventStreamDeterministic(t *testing.T) {
	run := func() []byte {
		sc := Scenario{Seed: 7, Clients: 3, Fetches: 5, FaultRate: 0.05, Churn: 100}
		r, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := export.WriteJSONL(&buf, r.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("same seed produced different event streams:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
}

// TestEventsShape: one event per record, canonical order, no wall-clock
// residue, and per-class joules that re-derive from the event's own byte
// counts via the paper's Eq. 1 / Eq. 3 — the property the calibrator
// depends on.
func TestEventsShape(t *testing.T) {
	sc := Scenario{Seed: 3, Clients: 2, Fetches: 6}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	evs := r.Events()
	if len(evs) != len(r.Records) {
		t.Fatalf("%d events for %d records", len(evs), len(r.Records))
	}
	for i, e := range evs {
		if e.Time != "" {
			t.Errorf("event %d kept wall time %q", i, e.Time)
		}
		if i > 0 && e.VNS < evs[i-1].VNS {
			t.Errorf("event %d out of order: v_ns %d after %d", i, e.VNS, evs[i-1].VNS)
		}
		if e.Span != "fetch" || e.ReqID == "" || e.Device != energy.Rate11Mbps().Device {
			t.Errorf("event %d identity wrong: %+v", i, e)
		}
		if e.Outcome != "ok" {
			t.Errorf("fault-free event %d outcome = %q", i, e.Outcome)
			continue
		}
		scheme, err := codec.ParseScheme(e.Scheme)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		p := energy.Rate11Mbps().ParamsFor(scheme)
		s := float64(e.RawBytes) / 1e6
		scMB := float64(e.WireBytes) / 1e6
		want := p.DownloadBreakdown(s)
		if e.BlocksCompressed > 0 {
			want = p.InterleavedBreakdown(s, scMB)
		}
		if e.RadioJ != want.RadioJ || e.CPUJ != want.CPUJ || e.IdleJ != want.IdleJ {
			t.Errorf("event %d joules %g/%g/%g, model says %g/%g/%g",
				i, e.RadioJ, e.CPUJ, e.IdleJ, want.RadioJ, want.CPUJ, want.IdleJ)
		}
	}
}

// TestEnergyOracleHoldsStatsCharge: the energy oracle recomputes each
// fetch's charge from its byte counts and holds the client's
// FetchStats.Energy — the joules Events exports — to it, so a charge that
// drifts from the model is a violation even where the span agrees.
func TestEnergyOracleHoldsStatsCharge(t *testing.T) {
	r, err := Run(Scenario{Seed: 3, Clients: 2, Fetches: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("oracle violations: %v", r.Violations)
	}
	i := 0
	for r.Records[i].Err != "" {
		i++
	}
	r.Records[i].Stats.Energy.IdleJ += 1e-3
	r.checkEnergyConservation()
	if len(r.Violations) != 1 || !strings.Contains(r.Violations[0], "stats charge") {
		t.Fatalf("a drifted FetchStats charge gave violations %q, want one on the stats charge", r.Violations)
	}
}
