package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/harness"
	"repro/internal/obs/agg"
)

// schemeStat accumulates per-(scheme, mode) delivery totals.
type schemeStat struct {
	fetches int
	rawMB   float64
	virtual time.Duration
}

// report prints the soak's digest line (outcome counts and the canonical
// trace's digest), then the fleet summary: latency percentiles over
// successful fetches, the energy account, per-node lines on a cluster
// run, and per-scheme throughput (raw MB delivered per virtual second
// spent fetching it).
func report(w io.Writer, rep *harness.Report, wall time.Duration) {
	sc := rep.Scenario
	ok, retried := 0, 0
	var raw, wire int64
	var lat []time.Duration
	perScheme := map[string]*schemeStat{}
	for _, rec := range rep.Records {
		if rec.Stats.Attempts > 1 {
			retried++
		}
		if rec.Err != "" {
			continue
		}
		ok++
		raw += int64(rec.Raw)
		wire += int64(rec.Stats.WireBytes)
		lat = append(lat, rec.Virtual)
		key := fmt.Sprintf("%s/%s", rec.Scheme, rec.Mode)
		st := perScheme[key]
		if st == nil {
			st = &schemeStat{}
			perScheme[key] = st
		}
		st.fetches++
		st.rawMB += float64(rec.Raw) / 1e6
		st.virtual += rec.Virtual
	}
	slices.Sort(lat)

	sum := sha256.Sum256([]byte(rep.Trace()))
	fmt.Fprintf(w, "soak seed=%d: %d fetches (%d ok, %d retried) in %s virtual; trace sha256=%x\n",
		sc.Seed, len(rep.Records), ok, retried, rep.Elapsed, sum[:8])
	fmt.Fprintf(w, "loadgen %s seed=%d: %d clients, %d/%d fetches ok in %s virtual (%s wall)\n",
		sc.Name, sc.Seed, sc.Clients, ok, len(rep.Records), rep.Elapsed, wall.Round(time.Millisecond))
	fmt.Fprintf(w, "latency: p50=%s p99=%s p999=%s max=%s\n",
		agg.Percentile(lat, 0.50), agg.Percentile(lat, 0.99), agg.Percentile(lat, 0.999), agg.Percentile(lat, 1))

	joules, rawMB := rep.EnergyDelivered()
	if rawMB > 0 {
		fmt.Fprintf(w, "energy: %.1f J for %.2f raw MB = %.2f J/MB", joules, rawMB, joules/rawMB)
		byClass := rep.EnergyByClass()
		for _, class := range []string{"radio", "cpu", "idle"} {
			if j, ok := byClass[class]; ok {
				fmt.Fprintf(w, " (%s %.1f%%)", class, 100*j/joules)
			}
		}
		fmt.Fprintln(w)
	}

	// On a cluster run, break the aggregate down per ring node so skew
	// (pinning imbalance, a hot owner) is visible at a glance.
	if len(rep.PerNode) > 0 {
		fmt.Fprintf(w, "cluster: %d nodes, %d peer fetches (%d failed), ring routing %d owner / %d remote\n",
			len(rep.PerNode), rep.Stats.PeerFetches, rep.Stats.PeerFetchErrors,
			rep.Stats.RingOwnerHits, rep.Stats.RingRemoteHits)
		// Aggregate serve throughput over the client makespan (first fetch
		// start to last fetch end) — Elapsed also counts the post-run timer
		// drain, which would understate every configuration equally.
		if ms := rep.ClientMakespan(); ms > 0 {
			fmt.Fprintf(w, "cluster makespan: %s; aggregate %.3f raw MB/s (%.3f wire MB/s)\n",
				ms, float64(raw)/1e6/ms.Seconds(), float64(wire)/1e6/ms.Seconds())
		}
		for i, st := range rep.PerNode {
			fmt.Fprintf(w, "node n%d: %5d conns %6d hits %6d misses %4d compressions %4d peer fetches %9d B served\n",
				i, st.ConnsTotal, st.CacheHits, st.CacheMisses, st.Compressions,
				st.PeerFetches, st.BytesServedRaw+st.BytesServedCompressed)
		}
	}

	keys := make([]string, 0, len(perScheme))
	for k := range perScheme {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		st := perScheme[k]
		thru := 0.0
		if st.virtual > 0 {
			thru = st.rawMB / st.virtual.Seconds()
		}
		fmt.Fprintf(w, "scheme %-24s %6d fetches %8.2f MB %8.3f MB/s\n", k, st.fetches, st.rawMB, thru)
	}
}
