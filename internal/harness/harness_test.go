package harness

import (
	"repro/internal/simnet"
	"repro/internal/workload"

	"strings"
	"testing"
	"time"
)

// TestSoakDeterministicTrace: the same seed must produce a byte-identical
// canonical trace twice in a row — the replay guarantee `energysim soak
// -seed N` and the CI gate rest on. A different seed must diverge (if it
// did not, the trace would not actually capture the schedule).
func TestSoakDeterministicTrace(t *testing.T) {
	sc := Scenario{Seed: 7, Clients: 4, FetchesPerClient: 8, FaultRate: 0.01, Churn: 10}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := a.Trace(), b.Trace()
	if ta != tb {
		la, lb := strings.Split(ta, "\n"), strings.Split(tb, "\n")
		for i := range la {
			if i >= len(lb) || la[i] != lb[i] {
				t.Fatalf("trace diverged at line %d:\n  run1: %s\n  run2: %s", i, la[i], lb[i])
			}
		}
		t.Fatalf("trace diverged in length: %d vs %d lines", len(la), len(lb))
	}
	sc.Seed = 8
	c, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Trace() == ta {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestSoakDefaultScenario is the full CI soak in-process: ≥500 fetches
// across 10 clients with all four fault modes live and cache churn, every
// oracle green, finishing in bounded wall time because all link and
// backoff waiting happens in virtual time.
func TestSoakDefaultScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full soak")
	}
	sc := Scenario{Seed: 11, FaultRate: 0.01, Churn: 100}
	wallStart := time.Now()
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(wallStart)
	for _, v := range r.Violations {
		t.Errorf("oracle violation: %s", v)
	}
	if got := len(r.Records); got < 500 {
		t.Fatalf("soak ran %d fetches, want >= 500", got)
	}
	okCnt, retried := 0, 0
	for _, rec := range r.Records {
		if rec.Err == "" {
			okCnt++
		}
		if rec.Stats.Attempts > 1 {
			retried++
		}
	}
	if okCnt < len(r.Records)*9/10 {
		t.Errorf("only %d/%d fetches succeeded", okCnt, len(r.Records))
	}
	if retried == 0 {
		t.Error("fault plan never fired; the soak is not exercising retries")
	}
	if r.Elapsed <= 0 {
		t.Error("virtual clock did not advance")
	}
	t.Logf("soak: %d fetches (%d ok, %d retried) in %v virtual, %v wall; %s",
		len(r.Records), okCnt, retried, r.Elapsed, wall, strings.TrimSpace(strings.SplitN(r.Trace(), "\n", 2)[0]))
	if wall > 30*time.Second {
		t.Errorf("soak took %v of wall time, budget 30s", wall)
	}
}

// TestSoakFaultFreeExactReconciliation: with no faults every fetch takes
// exactly one attempt and the counter oracle tightens to equalities
// (Requests == ConnsTotal == fetches, zero errors, payload bytes served
// == payload bytes received). Any slack here means the ledger lies.
func TestSoakFaultFreeExactReconciliation(t *testing.T) {
	sc := Scenario{Seed: 3, Clients: 5, FetchesPerClient: 10, Churn: 5}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.Violations {
		t.Errorf("oracle violation: %s", v)
	}
	for _, rec := range r.Records {
		if rec.Err != "" {
			t.Errorf("fault-free fetch failed: c%02d f%03d %s: %s", rec.Client, rec.Index, rec.Name, rec.Err)
		}
		if rec.Stats.Attempts != 1 {
			t.Errorf("fault-free fetch used %d attempts: c%02d f%03d", rec.Stats.Attempts, rec.Client, rec.Index)
		}
		if rec.Stats.ResumedBytes != 0 {
			t.Errorf("fault-free fetch resumed %d bytes: c%02d f%03d", rec.Stats.ResumedBytes, rec.Client, rec.Index)
		}
	}
	if r.Stats.ConnsTotal != int64(len(r.Records)) {
		t.Errorf("ConnsTotal %d != %d fetches", r.Stats.ConnsTotal, len(r.Records))
	}
}

// TestSoakChurnForcesRecompression: generation bumps must drop cached
// artifacts — a churned run performs more compressions than a quiet one
// with the same schedule — without breaking a single payload.
func TestSoakChurnForcesRecompression(t *testing.T) {
	quiet := Scenario{Seed: 5, Clients: 4, FetchesPerClient: 10}
	churned := quiet
	churned.Churn = 40
	rq, err := Run(quiet)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Run(churned)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range append(rq.Violations, rc.Violations...) {
		t.Errorf("oracle violation: %s", v)
	}
	if rc.Stats.Compressions <= rq.Stats.Compressions {
		t.Errorf("churned run compressed %d artifacts, quiet run %d — churn is not dropping the cache",
			rc.Stats.Compressions, rq.Stats.Compressions)
	}
}

// TestSoakCustomCorpusAndSchedule: a scenario with a spec-style corpus
// (one class file, one ratio-knob file) on a scripted link (rate cliff +
// power-save window) must pass every oracle, deliver byte-exact payloads,
// and keep the replay guarantee.
func TestSoakCustomCorpusAndSchedule(t *testing.T) {
	sc := Scenario{
		Name: "custom", Seed: 9, Clients: 3, FetchesPerClient: 6,
		Corpus: []CorpusEntry{
			{Name: "notes.txt", Class: workload.ClassMail, Size: 5_000},
			{Name: "blob.bin", Ratio: 1.6, Size: 30_000},
		},
		Schedule: []simnet.Phase{
			{Start: 100 * time.Millisecond, Rate: 0.18e6},
			{Start: 300 * time.Millisecond, Rate: 0},
			{Start: 400 * time.Millisecond, Rate: 0.6e6},
		},
	}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range a.Violations {
		t.Errorf("oracle violation: %s", v)
	}
	for _, rec := range a.Records {
		if rec.Err != "" {
			t.Errorf("fetch failed: c%02d f%03d %s: %s", rec.Client, rec.Index, rec.Name, rec.Err)
		}
		if rec.Virtual <= 0 {
			t.Errorf("c%02d f%03d: non-positive virtual latency %v", rec.Client, rec.Index, rec.Virtual)
		}
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace() != b.Trace() {
		t.Fatal("custom-corpus scenario is not replayable")
	}
	if !strings.Contains(a.Trace(), "name=custom") || !strings.Contains(a.Trace(), "sched=3") {
		t.Fatalf("trace header missing scenario identity: %q", strings.SplitN(a.Trace(), "\n", 2)[0])
	}
}

// TestCheckBounds: each bound trips on a report that breaches it and
// stays quiet on one that honors it, without mutating Violations.
func TestCheckBounds(t *testing.T) {
	r, err := Run(Scenario{Seed: 13, Clients: 2, FetchesPerClient: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("clean run reported violations: %v", r.Violations)
	}
	if got := r.checkBounds(Bounds{}); len(got) != 0 {
		t.Errorf("zero bounds produced violations: %v", got)
	}
	ok := Bounds{MinOKFrac: 1.0, MaxVirtual: time.Hour, MaxAttempts: 1, MaxJoulesPerMB: 1e6}
	if got := r.checkBounds(ok); len(got) != 0 {
		t.Errorf("satisfied bounds produced violations: %v", got)
	}
	joules, mb := r.EnergyDelivered()
	if joules <= 0 || mb <= 0 {
		t.Fatalf("EnergyDelivered = %v J, %v MB", joules, mb)
	}
	tight := Bounds{MaxVirtual: time.Nanosecond, MaxAttempts: 0, MinOKFrac: 0, MaxJoulesPerMB: joules / mb / 2}
	got := r.checkBounds(tight)
	if len(got) != 2 {
		t.Fatalf("tight bounds produced %d violations, want 2: %v", len(got), got)
	}
	if len(r.Violations) != 0 {
		t.Error("checkBounds mutated Report.Violations")
	}
}

// TestClientRecordsAliasesReport: the per-client oracles read a client's
// records as its stretch of Report.Records — found without a scan and
// handed out without a copy, so judging a fleet is linear in its size.
func TestClientRecordsAliasesReport(t *testing.T) {
	const clients, fetches = 3, 4
	r := &Report{}
	for ci := 0; ci < clients; ci++ {
		recs := make([]FetchRecord, fetches)
		for k := range recs {
			recs[k] = FetchRecord{Client: ci, Index: k}
		}
		r.addClient(recs, nil)
	}
	r.addClient(nil, nil) // a client that never fetched
	for ci := 0; ci < clients; ci++ {
		got := r.clientRecords(ci)
		if len(got) != fetches {
			t.Fatalf("client %d: %d records, want %d", ci, len(got), fetches)
		}
		for k, rec := range got {
			if rec.Client != ci || rec.Index != k {
				t.Errorf("client %d record %d is c%02d f%03d", ci, k, rec.Client, rec.Index)
			}
		}
		if &got[0] != &r.Records[ci*fetches] {
			t.Errorf("client %d: records are a copy, not a stretch of Report.Records", ci)
		}
	}
	if got := r.clientRecords(clients); len(got) != 0 {
		t.Errorf("client without fetches: %d records", len(got))
	}
	var sink []FetchRecord
	if n := testing.AllocsPerRun(100, func() { sink = r.clientRecords(1) }); n != 0 {
		t.Errorf("clientRecords allocates %v times per call, want 0", n)
	}
	_ = sink
}
