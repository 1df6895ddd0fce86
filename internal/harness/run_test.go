package harness

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/proxy"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Once every connection of a default.scn run has closed, every segment a
// write took is back with the clock: none is left in flight or unread, and
// the free lists hold the ones they had room for.
func TestRunReturnsEverySegment(t *testing.T) {
	// default.scn's shape; the golden pins that it is the same run.
	sc := Scenario{Name: "default", Seed: 1, Clients: 4, FetchesPerClient: 10, FaultRate: 0.01, Churn: 100}
	golden, err := os.ReadFile("../../testdata/scenarios/golden/default.seed1.trace")
	if err != nil {
		t.Fatal(err)
	}
	clock := simnet.NewClock()
	r, err := run(sc, clock)
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace() != string(golden) {
		t.Fatal("the run is not default.scn at seed 1: its trace differs from the golden")
	}
	if !r.OK() {
		t.Fatalf("oracle violations: %v", r.Violations)
	}
	held, free := clock.Segments()
	if held != 0 {
		t.Errorf("%d segments still held after every connection closed", held)
	}
	if free == 0 {
		t.Error("no segment on the free lists: nothing was recycled")
	}
}

// A spec whose link runs at the 2 Mb/s row's effective rate is charged at
// that row: every fetch span carries the 2 Mb/s breakdown, the energy
// oracle holds it to that, and its events carry the row's device.
func TestTwoMbpsLinkChargedAtItsRow(t *testing.T) {
	row := energy.Rate2Mbps()
	sc := Scenario{Seed: 3, Clients: 2, FetchesPerClient: 4,
		Link: simnet.Link{BytesPerSec: row.BytesPerSec(), Latency: 5 * time.Millisecond, JitterFrac: 0.1}}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("oracle violations: %v", r.Violations)
	}
	ok := 0
	for ci, spans := range r.Spans {
		for k, sd := range spans {
			rec := r.clientRecords(ci)[k]
			if rec.Err != "" {
				continue
			}
			ok++
			bd := row.ParamsFor(rec.Scheme).TransferBreakdown(rec.Stats.RawBytes, rec.Stats.WireBytes, rec.Stats.BlocksCompressed)
			if got := sd.TotalJoules(); !closeRel(got, bd.Total()) {
				t.Errorf("c%02d f%03d: span charged %.9f J, the 2 Mb/s row says %.9f J", ci, k, got, bd.Total())
			}
		}
	}
	if ok == 0 {
		t.Fatal("no fetch succeeded")
	}
	for _, e := range r.Events() {
		if e.Device != row.Device {
			t.Fatalf("event device %q, want %q", e.Device, row.Device)
		}
	}
}

// traceReport is a report of n records whose fields exercise every width
// the trace pads to and past: clients past 99, fetch indexes past 999, CRCs
// with leading zeros, failed fetches, and both header suffixes.
func traceReport(n int) *Report {
	r := &Report{Scenario: Scenario{Name: "wide", Seed: -42, Clients: n / 8, FetchesPerClient: 8,
		FaultRate: 0.0125, Link: simnet.Link{BytesPerSec: 180000.4, Latency: 1500 * time.Microsecond, JitterFrac: 0.105},
		Churn: 3, Schedule: make([]simnet.Phase, 2), Nodes: 3, Replicas: 1, HotK: 16,
		PeerLink: simnet.Link{BytesPerSec: 12_500_000}, DeadlineClass: 2, BudgetJ: 1e-7}}
	for i := 0; i < n; i++ {
		rec := FetchRecord{Client: i / 8 * 13, Index: i * 7 % 1200, Name: defaultCorpus[i%len(defaultCorpus)].Name,
			Scheme: schemes[i%len(schemes)], Mode: modes[i%len(modes)], Raw: i * 977, CRC: uint32(i) * 0x01000193 >> (i % 32),
			Stats: proxy.FetchStats{Attempts: 1 + i%3, ResumedBytes: i % 5 * 1000, WireBytes: i * 301, BlocksCompressed: i % 4, BlocksTotal: i % 7}}
		if i%11 == 0 {
			rec.Err = "protocol"
		}
		r.Records = append(r.Records, rec)
	}
	return r
}

// The trace writer prints what fmt printed: the header's verbs and each
// record's "c%02d f%03d %s %s %s %s raw=%d crc=%08x attempts=%d resumed=%d
// wire=%d blocks=%d/%d" line.
func TestTraceMatchesFmt(t *testing.T) {
	for _, r := range []*Report{traceReport(2500), {Scenario: Scenario{Seed: 1}}} {
		s := r.Scenario
		name := s.Name
		if name == "" {
			name = "default"
		}
		var want strings.Builder
		fmt.Fprintf(&want, "soak name=%s seed=%d clients=%d fetches=%d fault=%.4f link=%.0fBps lat=%s jitter=%.2f churn=%d corpus=%08x sched=%d",
			name, s.Seed, s.Clients, s.FetchesPerClient, s.FaultRate,
			s.Link.BytesPerSec, s.Link.Latency, s.Link.JitterFrac, s.Churn,
			corpusDigest(s.Corpus), len(s.Schedule))
		if s.Nodes > 0 {
			fmt.Fprintf(&want, " nodes=%d replicas=%d hotk=%d peerlink=%.0fBps", s.Nodes, s.Replicas, s.HotK, s.PeerLink.BytesPerSec)
			fmt.Fprintf(&want, " decider=static class=%d budget=%g", s.DeadlineClass, s.BudgetJ)
		}
		want.WriteByte('\n')
		for _, rec := range r.Records {
			status := rec.Err
			if status == "" {
				status = "ok"
			}
			fmt.Fprintf(&want, "c%02d f%03d %s %s %s %s raw=%d crc=%08x attempts=%d resumed=%d wire=%d blocks=%d/%d\n",
				rec.Client, rec.Index, rec.Name, rec.Scheme, rec.Mode, status,
				rec.Raw, rec.CRC, rec.Stats.Attempts, rec.Stats.ResumedBytes,
				rec.Stats.WireBytes, rec.Stats.BlocksCompressed, rec.Stats.BlocksTotal)
		}
		if got := r.Trace(); got != want.String() {
			gl, wl := strings.Split(got, "\n"), strings.Split(want.String(), "\n")
			for i := range wl {
				if i >= len(gl) || gl[i] != wl[i] {
					t.Fatalf("line %d:\n got %q\nwant %q", i, gl[min(i, len(gl)-1)], wl[i])
				}
			}
			t.Fatalf("%d lines, fmt gives %d", len(gl), len(wl))
		}
	}
}

// The trace of a 2,500-fetch report, a fleet pass's, is one allocation
// sized up front.
func TestTraceAllocs(t *testing.T) {
	r := traceReport(2500)
	if n := testing.AllocsPerRun(20, func() { _ = r.Trace() }); n > 2 {
		t.Errorf("Trace of %d records: %v allocations, want <= 2", len(r.Records), n)
	}
}

// A Run on the clock an earlier Run left replays it: the same trace, event
// stream and elapsed virtual time as a Run on a new clock. Run keeps that
// clock for the next Run, and Reset refuses it while a goroutine is busy
// on it.
func TestReusedClockReplays(t *testing.T) {
	sc := Scenario{Name: "default", Seed: 1, Clients: 4, FetchesPerClient: 10, FaultRate: 0.01, Churn: 100}
	fresh, err := run(sc, simnet.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	clock := simnet.NewClock()
	if _, err := run(sc, clock); err != nil {
		t.Fatal(err)
	}
	if err := clock.Reset(); err != nil {
		t.Fatalf("the clock of a finished run does not reset: %v", err)
	}
	again, err := run(sc, clock)
	if err != nil {
		t.Fatal(err)
	}
	lastClock.put(clock)
	kept, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if lastClock.clock != clock {
		t.Error("Run did not keep the clock it ran on")
	}
	for _, r := range []*Report{again, kept} {
		if !r.OK() {
			t.Fatalf("oracle violations: %v", r.Violations)
		}
		if r.Trace() != fresh.Trace() {
			t.Error("the trace on a reused clock differs from a new clock's")
		}
		if !reflect.DeepEqual(r.Events(), fresh.Events()) {
			t.Error("the event stream on a reused clock differs from a new clock's")
		}
		if r.Elapsed != fresh.Elapsed {
			t.Errorf("elapsed %v on a reused clock, %v on a new one", r.Elapsed, fresh.Elapsed)
		}
	}

	busy := simnet.NewClock()
	hold := make(chan struct{})
	busy.Go(func() { <-hold })
	if busy.Reset() == nil {
		t.Error("Reset of a clock with a busy goroutine succeeded")
	}
	close(hold)
}

// A fleet pass starts each handheld at its turn, on a goroutine an earlier
// one left: testdata/scenarios/loadgen/fleet-10k.scn at the benchmark's
// 2,500 clients and seed 1 runs its clients, the server's handlers aside,
// on a few dozen ledger goroutines rather than one each, and passes every
// oracle, the goroutine-leak oracle among them.
func TestFleetPassSpawnsFewGoroutines(t *testing.T) {
	sc := fleetScenario(2500)
	clock := simnet.NewClock()
	r, err := run(sc, clock)
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK() {
		t.Fatalf("oracle violations: %v", r.Violations)
	}
	if len(r.Records) != sc.Clients {
		t.Fatalf("%d fetches, want %d", len(r.Records), sc.Clients)
	}
	if n := clock.Spawned(); n > 64 {
		t.Errorf("%d ledger goroutines for %d handhelds, want at most 64", n, sc.Clients)
	}
}

// fleetScenario is testdata/scenarios/loadgen/fleet-10k.scn at the given
// number of clients and seed 1.
func fleetScenario(clients int) Scenario {
	return Scenario{Name: "fleet-10k", Seed: 1, Clients: clients, FetchesPerClient: 1, MaxRetries: 10,
		Corpus: []CorpusEntry{
			{Name: "ping.txt", Class: workload.ClassMail, Size: 2000},
			{Name: "pong.bin", Ratio: 1.5, Size: 3000},
		}}
}

// fleetAllocsPerFetch is what a 500-client fleet pass on a reused clock
// allocates per fetch, the pass's set-up (corpus, server, report and
// oracles) included: 19.0-19.3 measured on go1.24. The budget leaves a
// margin of about 10 % for the collector's timing, which decides how
// often a pooled codec workspace must be made again.
const fleetAllocsPerFetch = 21

// A fleet pass allocates only what its fetches need: fleet-10k.scn at 500
// clients, on the clock the pass before it left, stays within
// fleetAllocsPerFetch objects per fetch.
func TestFleetPassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts of a race-detector build")
	}
	sc := fleetScenario(500)
	clock := simnet.NewClock()
	pass := func() {
		if err := clock.Reset(); err != nil {
			t.Fatal(err)
		}
		r, err := run(sc, clock)
		if err != nil {
			t.Fatal(err)
		}
		if !r.OK() {
			t.Fatalf("oracle violations: %v", r.Violations)
		}
	}
	pass()
	const passes = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	perFetch := float64(after.Mallocs-before.Mallocs) / float64(passes*sc.Clients)
	t.Logf("%.2f allocations per fetch", perFetch)
	if perFetch > fleetAllocsPerFetch {
		t.Errorf("a fleet pass allocates %.2f objects per fetch, want at most %v", perFetch, fleetAllocsPerFetch)
	}
}
