package harness

import (
	"strings"
	"testing"

	"repro/internal/simnet"
	"repro/internal/workload"
)

// diffScenario is the differential soak shape: a modest fleet on the
// paper's 2 Mb/s operating point, where the dynamic decider's live
// threshold (factor ≈1.03, size ≈1 kB) visibly departs from Eq. 6's
// static one (1.13, 3900 B) — so the dominance check cannot pass
// vacuously — with all four fault modes live.
func diffScenario(seed int64) Scenario {
	return Scenario{
		Seed:          seed,
		Clients:       4,
		Fetches:       10,
		FaultRate:     0.01,
		Churn:         5,
		Link:          simnet.Link{BytesPerSec: 180_000, Latency: 2_000_000, JitterFrac: 0.10},
		DeadlineClass: 2, // standard
		BudgetJ:       50,
		// The corpus straddles the policies' disagreement band: sub-3900
		// compressible files (raw under Eq. 6's file floor, compressed
		// under the live ~1 kB threshold at 2 Mb/s), marginal text the
		// static factor gate refuses, incompressible noise both refuse,
		// and a multi-block archive.
		Files: []CorpusEntry{
			{Name: "memo.xml", Class: workload.ClassXML, Size: 3_000},
			{Name: "note.txt", Class: workload.ClassMail, Size: 2_000},
			{Name: "body.txt", Class: workload.ClassMail, Size: 20_000},
			{Name: "noise.dat", Class: workload.ClassRandom, Size: 30_000},
			{Name: "site.tar", Class: workload.ClassTarHTML, Size: 200_000},
		},
	}
}

// TestDifferentialSoak is the CI differential gate in-process: paired
// static-vs-dynamic runs at the two pinned seeds must pass every
// per-run oracle, deliver byte-exact payloads, and show modeled-energy
// dominance — strictly, at this link rate — for the dynamic policy.
func TestDifferentialSoak(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		d, err := RunPaired(diffScenario(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range d.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
		if !(d.DynamicJ < d.StaticJ) {
			t.Errorf("seed %d: dynamic %.6g J not strictly below static %.6g J at 2 Mb/s — dominance is passing vacuously",
				seed, d.DynamicJ, d.StaticJ)
		}
		t.Logf("seed %d: corpus model energy static %.4g J, dynamic %.4g J (%.2f%% saved)",
			seed, d.StaticJ, d.DynamicJ, 100*(1-d.DynamicJ/d.StaticJ))
	}
}

// TestDynamicDeciderTraceDeterministic: the replay guarantee must
// survive the dynamic decider — same seed, byte-identical trace, and the
// header carries the decider fields so a dynamic golden can never be
// confused with a static one.
func TestDynamicDeciderTraceDeterministic(t *testing.T) {
	sc := Scenario{Seed: 9, Clients: 3, Fetches: 6, Decider: "dynamic", DeadlineClass: 1, BudgetJ: 10}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace() != b.Trace() {
		t.Fatal("dynamic-decider trace not deterministic")
	}
	head := strings.SplitN(a.Trace(), "\n", 2)[0]
	if !strings.Contains(head, "decider=dynamic class=1 budget=10") {
		t.Fatalf("trace header missing decider fields: %s", head)
	}
	for _, v := range a.Violations {
		t.Errorf("oracle violation: %s", v)
	}
	// The static header must stay untouched when nothing is declared.
	sc.Decider, sc.DeadlineClass, sc.BudgetJ = "", 0, 0
	c, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if head := strings.SplitN(c.Trace(), "\n", 2)[0]; strings.Contains(head, "decider=") {
		t.Fatalf("undeclared scenario grew a decider header field: %s", head)
	}
}
