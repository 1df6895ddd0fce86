package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/proxy"
	"repro/internal/simnet"
)

// clusterShape is the scaling experiment's fixed workload: fault-free and
// churn-free so the strict at-most-one-compression-per-key oracle is
// armed, with enough fetches that line contention, not ramp-up, dominates.
func clusterShape(seed int64, nodes int) Scenario {
	return Scenario{
		Name: "cluster", Seed: seed, Clients: 9, Fetches: 12,
		Nodes: nodes, Replicas: 1, HotK: 8,
	}
}

// aggregateWireBytes is the run's total client-received wire volume — the
// numerator of aggregate serve throughput.
func aggregateWireBytes(r *Report) int64 {
	var total int64
	for _, rec := range r.Records {
		total += int64(rec.Stats.WireBytes)
	}
	return total
}

// TestClusterThroughputScales is the tentpole acceptance gate: on the same
// seeded workload, a 3-node ring must deliver at least twice the aggregate
// serve throughput of a single node (both shaped by per-node transmit
// lines), while spending within 10% of the single node's compression work
// — peer fetches replace recompression, so adding nodes buys bandwidth,
// not redundant CPU.
func TestClusterThroughputScales(t *testing.T) {
	one, err := Run(clusterShape(21, 1))
	if err != nil {
		t.Fatal(err)
	}
	three, err := Run(clusterShape(21, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range append(one.Violations, three.Violations...) {
		t.Errorf("oracle violation: %s", v)
	}
	for _, r := range []*Report{one, three} {
		for _, rec := range r.Records {
			if rec.Err != "" {
				t.Fatalf("fetch failed on %d-node run: c%02d f%03d %s: %s",
					r.Scenario.Nodes, rec.Client, rec.Index, rec.Name, rec.Err)
			}
		}
	}

	bytes1, bytes3 := aggregateWireBytes(one), aggregateWireBytes(three)
	if bytes1 != bytes3 {
		t.Fatalf("wire volume differs between runs: %d vs %d bytes (schedules should be identical)", bytes1, bytes3)
	}
	tput1 := float64(bytes1) / one.ClientMakespan().Seconds()
	tput3 := float64(bytes3) / three.ClientMakespan().Seconds()
	if tput3 < 2*tput1 {
		t.Errorf("3-node throughput %.0f B/s < 2x single-node %.0f B/s (makespan %v vs %v)",
			tput3, tput1, three.ClientMakespan(), one.ClientMakespan())
	}

	c1, c3 := one.Stats.Compressions, three.Stats.Compressions
	if float64(c3) > 1.1*float64(c1) {
		t.Errorf("3-node run compressed %d artifacts, single node %d — more than 10%% extra CPU", c3, c1)
	}
	if three.Stats.PeerFetches == 0 {
		t.Error("3-node run never peer-fetched; the ring is not routing misses")
	}
	if three.Stats.PeerFetchErrors != 0 {
		t.Errorf("3-node run had %d peer fetch errors on a healthy ring", three.Stats.PeerFetchErrors)
	}
	t.Logf("throughput: 1 node %.0f B/s, 3 nodes %.0f B/s (%.2fx); compressions %d vs %d; peer fetches %d",
		tput1, tput3, tput3/tput1, c1, c3, three.Stats.PeerFetches)
}

// TestSchedulesIdenticalAcrossNodeCounts: client i's schedule derives from
// (seed, i) alone, never from the testbed's shape — so the single-server
// run, a 1-node ring and a 3-node ring of one seed must fetch the same
// files with the same scheme and mode in the same order, and (fault-free,
// churn-free) deliver the same bytes.
func TestSchedulesIdenticalAcrossNodeCounts(t *testing.T) {
	type fetchKey struct {
		Client, Index int
		Name          string
		Scheme        codec.Scheme
		Mode          proxy.Mode
		Raw           int
		CRC           uint32
	}
	var want []fetchKey
	for _, nodes := range []int{0, 1, 3} {
		r, err := Run(Scenario{Seed: 51, Clients: 5, Fetches: 8, Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range r.Violations {
			t.Errorf("nodes=%d: oracle violation: %s", nodes, v)
		}
		got := make([]fetchKey, len(r.Records))
		for i, rec := range r.Records {
			if rec.Err != "" {
				t.Fatalf("nodes=%d: c%02d f%03d %s failed: %s", nodes, rec.Client, rec.Index, rec.Name, rec.Err)
			}
			got[i] = fetchKey{rec.Client, rec.Index, rec.Name, rec.Scheme, rec.Mode, rec.Raw, rec.CRC}
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("nodes=%d: %d records, single-server run had %d", nodes, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("nodes=%d: record %d = %+v, single-server run had %+v", nodes, i, got[i], want[i])
			}
		}
	}
}

// wlanCliff drops the WLAN to 60 kB/s 1 ms in, for the rest of the run.
var wlanCliff = []simnet.Phase{{Start: time.Millisecond, Rate: 60000}}

// TestLineFollowsTheSchedule: one network is one medium, so a node's
// shared transmit line follows the link schedule as a connection's own
// transmitter does. With one client nothing else contends for the line,
// so over a rate cliff each fetch takes the same virtual time on the
// single server (Nodes 0) and on a 1-node ring (Nodes 1).
func TestLineFollowsTheSchedule(t *testing.T) {
	var want []time.Duration
	for _, nodes := range []int{0, 1} {
		r, err := Run(Scenario{Seed: 5, Clients: 1, Fetches: 8, Nodes: nodes, Schedule: wlanCliff})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range r.Violations {
			t.Errorf("nodes=%d: oracle violation: %s", nodes, v)
		}
		got := make([]time.Duration, len(r.Records))
		for i, rec := range r.Records {
			if rec.Err != "" {
				t.Fatalf("nodes=%d: f%03d %s failed: %s", nodes, rec.Index, rec.Name, rec.Err)
			}
			got[i] = rec.Virtual
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("nodes=%d: fetch %d took %v, single server %v", nodes, i, got[i], want[i])
			}
		}
	}
}

// TestBackhaulIgnoresTheWLANSchedule: the ring's PXY-P backhaul is a
// network of its own, so a cliff on the WLAN does not slow it: one peer
// fetch between two nodes takes the same virtual time with and without
// the WLAN schedule.
func TestBackhaulIgnoresTheWLANSchedule(t *testing.T) {
	peerFetch := func(sched []simnet.Phase) time.Duration {
		s := Scenario{Seed: 5, Nodes: 2, Schedule: sched}.WithDefaults()
		clock := simnet.NewClock()
		nw := simnet.NewNetwork(clock, s.Link)
		if sched != nil {
			if err := nw.SetSchedule(sched); err != nil {
				t.Fatal(err)
			}
		}
		corpus := buildCorpus(s)
		servers, nodes, _, err := startServers(s, clock, nw, corpus)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			for _, n := range nodes {
				n.Close()
			}
			for _, srv := range servers {
				srv.Close()
			}
		}()
		// The first corpus file whose gzip artifact n1 owns, fetched by n0.
		var key proxy.ArtifactKey
		for _, f := range corpus {
			gen, _ := servers[1].Generation(f.name)
			k := proxy.ArtifactKey{Name: f.name, Gen: gen, Scheme: codec.Gzip, FP: "always"}
			if nodes[0].Ring().Owner(cluster.KeyString(k)) == "n1" {
				key = k
				break
			}
		}
		if key.Name == "" {
			t.Fatal("n1 owns no corpus file's gzip artifact")
		}
		var took time.Duration
		clock.Run(func() {
			clock.Sleep(2 * time.Millisecond) // past the cliff
			start := clock.Elapsed()
			if _, err := nodes[0].PeerFetch(key); err != nil {
				t.Errorf("peer fetch of %s: %v", key.Name, err)
			}
			took = clock.Elapsed() - start
		})
		return took
	}
	plain, cliff := peerFetch(nil), peerFetch(wlanCliff)
	if plain <= 0 || cliff != plain {
		t.Fatalf("peer fetch took %v under a WLAN cliff, %v without; want equal and positive", cliff, plain)
	}
}

// TestClusterDeterministicTrace: a cluster run replays byte-identically
// from its seed, its header carries the cluster shape, and a different
// node count produces a different header (goldens cannot be confused).
func TestClusterDeterministicTrace(t *testing.T) {
	sc := clusterShape(31, 3)
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace() != b.Trace() {
		la, lb := strings.Split(a.Trace(), "\n"), strings.Split(b.Trace(), "\n")
		for i := range la {
			if i >= len(lb) || la[i] != lb[i] {
				t.Fatalf("cluster trace diverged at line %d:\n  run1: %s\n  run2: %s", i, la[i], lb[i])
			}
		}
		t.Fatal("cluster trace diverged in length")
	}
	head := strings.SplitN(a.Trace(), "\n", 2)[0]
	if !strings.Contains(head, "nodes=3 replicas=1 hotk=8") {
		t.Fatalf("cluster header missing ring shape: %q", head)
	}
	if len(a.PerNode) != 3 {
		t.Fatalf("PerNode has %d entries, want 3", len(a.PerNode))
	}
	var conns int64
	for _, st := range a.PerNode {
		if st.ConnsTotal == 0 {
			t.Error("a node served no client connections; pinning is broken")
		}
		conns += st.ConnsTotal
	}
	if conns != a.Stats.ConnsTotal {
		t.Fatalf("PerNode conns sum %d != aggregate %d", conns, a.Stats.ConnsTotal)
	}
}

// TestClusterChurnAndFaults: the hostile shape — churn broadcasting
// ring-wide invalidations while client fault plans fire — must keep every
// oracle green (the per-key bound relaxes to one per node under churn) and
// still deliver byte-exact payloads on every successful fetch.
func TestClusterChurnAndFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full cluster soak")
	}
	sc := clusterShape(41, 3)
	sc.Churn = 20
	sc.FaultRate = 0.01
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.Violations {
		t.Errorf("oracle violation: %s", v)
	}
	okCnt := 0
	for _, rec := range r.Records {
		if rec.Err == "" {
			okCnt++
		}
	}
	if okCnt < len(r.Records)*9/10 {
		t.Errorf("only %d/%d fetches succeeded", okCnt, len(r.Records))
	}
	if r.Elapsed <= 0 || r.Elapsed > time.Hour {
		t.Errorf("implausible virtual elapsed %v", r.Elapsed)
	}
}
