package harness

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/proxy"
)

// energyTolerance is the relative error allowed between a fetch span's
// accounted joules and the analytic model recomputed from its transfer
// stats. The span charger distributes the exact Breakdown components, so
// only float summation order separates the two.
const energyTolerance = 1e-9

// runOracles checks every invariant over the finished run and appends
// violations to r.Violations.
func (r *Report) runOracles(corpus []corpusFile, goroutinesBefore int) {
	byName := make(map[string]corpusFile, len(corpus))
	for _, f := range corpus {
		byName[f.name] = f
	}
	r.checkPayloads(byName)
	r.checkEnergyConservation()
	r.checkResumeMonotone()
	r.checkCounters()
	r.checkGoroutines(goroutinesBefore)
}

func (r *Report) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// checkPayloads: every successful fetch must have returned the exact
// registered bytes — same length and same content CRC as the corpus file,
// whatever faults, retries and resumes the transfer went through.
func (r *Report) checkPayloads(byName map[string]corpusFile) {
	for _, rec := range r.Records {
		if rec.Err != "" {
			continue
		}
		f, ok := byName[rec.Name]
		if !ok {
			r.violate("payload: c%02d f%03d fetched unknown file %q", rec.Client, rec.Index, rec.Name)
			continue
		}
		if rec.Raw != len(f.content) || rec.CRC != f.crc {
			r.violate("payload: c%02d f%03d %s: got %d bytes crc %08x, corpus %d bytes crc %08x",
				rec.Client, rec.Index, rec.Name, rec.Raw, rec.CRC, len(f.content), f.crc)
		}
		if rec.Stats.RawBytes != len(f.content) {
			r.violate("payload: c%02d f%03d %s: stats.RawBytes %d != %d",
				rec.Client, rec.Index, rec.Name, rec.Stats.RawBytes, len(f.content))
		}
	}
}

// checkEnergyConservation: a successful fetch's span must carry exactly
// the joules the paper's model assigns to its transfer — Eq. 3
// (interleaved) when compressed blocks crossed the wire, Eq. 1 (plain
// download) otherwise — split into the same radio/CPU/idle components,
// and the charge on its FetchStats must be that breakdown. The reference
// is recomputed here from the record's byte counts, not read back from
// what the client charged.
func (r *Report) checkEnergyConservation() {
	rate := r.Scenario.rate()
	for ci, spans := range r.Spans {
		recs := r.clientRecords(ci)
		if len(spans) != len(recs) {
			r.violate("energy: client %d has %d spans for %d fetches", ci, len(spans), len(recs))
			continue
		}
		for k, sd := range spans {
			rec := recs[k]
			if rec.Err != "" {
				if sd.Err == "" {
					r.violate("energy: c%02d f%03d failed (%s) but span %d carries no error", ci, k, rec.Err, sd.ID)
				}
				continue
			}
			bd := rate.ParamsFor(rec.Scheme).TransferBreakdown(rec.Stats.RawBytes, rec.Stats.WireBytes, rec.Stats.BlocksCompressed)
			if rec.Stats.Energy != bd {
				r.violate("energy: c%02d f%03d %s: stats charge %+v, model %+v",
					ci, k, rec.Name, rec.Stats.Energy, bd)
			}
			got := sd.TotalJoules()
			if !closeRel(got, bd.Total()) {
				r.violate("energy: c%02d f%03d %s: span %.12f J, model %.12f J",
					ci, k, rec.Name, got, bd.Total())
				continue
			}
			byClass := sd.JoulesByClass()
			for _, cmp := range []struct {
				class string
				want  float64
			}{{"radio", bd.RadioJ}, {"cpu", bd.CPUJ}, {"idle", bd.IdleJ}} {
				if !closeRel(byClass[cmp.class], cmp.want) {
					r.violate("energy: c%02d f%03d %s: class %s %.12f J, model %.12f J",
						ci, k, rec.Name, cmp.class, byClass[cmp.class], cmp.want)
				}
			}
		}
	}
}

// checkResumeMonotone: within one fetch the server-granted resume offsets
// (the "resume" phases' byte counts, in attempt order) must never go
// backwards — the verified prefix only grows — and their sum must equal
// the fetch's ResumedBytes counter.
func (r *Report) checkResumeMonotone() {
	for ci, spans := range r.Spans {
		recs := r.clientRecords(ci)
		for k, sd := range spans {
			if k >= len(recs) {
				break
			}
			var last, sum int64
			ok := true
			for _, ph := range sd.Phases {
				if ph.Name != "resume" {
					continue
				}
				if ph.Bytes < last {
					ok = false
				}
				last = ph.Bytes
				sum += ph.Bytes
			}
			if !ok {
				r.violate("resume: c%02d f%03d %s: offsets regressed (last %d)", ci, k, recs[k].Name, last)
			}
			if sum != int64(recs[k].Stats.ResumedBytes) {
				r.violate("resume: c%02d f%03d %s: phase sum %d != stats.ResumedBytes %d",
					ci, k, recs[k].Name, sum, recs[k].Stats.ResumedBytes)
			}
		}
	}
}

// checkCounters reconciles the server's counter snapshot against the
// client-side ledger. With client-side fault injection every dial is
// still accepted and counted, so ConnsTotal == Σ dials holds exactly
// even on a lossy run; the singleflight identity Compressions + Coalesced
// == CacheMisses holds always. Fault-free runs additionally reconcile
// exactly: one parsed request per attempt, zero server errors, and
// payload bytes served == payload bytes received.
func (r *Report) checkCounters() {
	st := r.Stats
	var dials, attempts, cacheable int64
	for _, n := range r.Dials {
		dials += n
	}
	var clientPayload int64
	anyErr := false
	for _, rec := range r.Records {
		attempts += int64(rec.Stats.Attempts)
		if rec.Err != "" {
			anyErr = true
			continue
		}
		if rec.Mode != proxy.ModeRaw {
			cacheable += int64(rec.Stats.Attempts)
		}
		// Frame overhead actually read: one GET header per attempt, one
		// block header per block, one end frame per completed attempt.
		// Fault-free (attempts == 1) this recovers the exact payload bytes.
		if r.Scenario.FaultRate == 0 {
			overhead := rec.Stats.Attempts*proxy.GetHeaderLen + (rec.Stats.BlocksTotal+rec.Stats.Attempts)*proxy.BlockHeaderLen
			clientPayload += int64(rec.Stats.WireBytes - overhead)
		}
	}
	if st.ConnsRejected != 0 {
		r.violate("counters: %d connections shed (MaxConns too low for the scenario)", st.ConnsRejected)
	}
	if st.ConnsTotal != dials {
		r.violate("counters: server ConnsTotal %d != client dials %d", st.ConnsTotal, dials)
	}
	// The singleflight identity, extended by the cluster term: a miss
	// flight's leader either compresses or peer-fetches, and every
	// follower coalesces. Single-server runs have PeerFetches == 0, so
	// this is the original identity there.
	if st.Compressions+st.Coalesced+st.PeerFetches != st.CacheMisses {
		r.violate("counters: Compressions %d + Coalesced %d + PeerFetches %d != CacheMisses %d",
			st.Compressions, st.Coalesced, st.PeerFetches, st.CacheMisses)
	}
	// Every request the server parsed was sent by an attempt, or by the
	// send that found a kept connection closed, which a connection does
	// at most once before its client redials.
	if st.Requests > attempts+dials {
		r.violate("counters: Requests %d > attempts %d + dials %d", st.Requests, attempts, dials)
	}
	if r.Scenario.FaultRate == 0 && !anyErr {
		if st.Requests != attempts {
			r.violate("counters: fault-free but Requests %d != client attempts %d", st.Requests, attempts)
		}
		if st.Errors != 0 {
			r.violate("counters: fault-free but server recorded %d errors", st.Errors)
		}
		if r.Scenario.Nodes > 0 {
			// An owner's Artifact path counts a hit or miss for each peer
			// fetch it serves on top of its own client traffic, so the
			// cluster sum only bounds the client-side count from above.
			if st.CacheHits+st.CacheMisses < cacheable {
				r.violate("counters: CacheHits %d + CacheMisses %d < cacheable attempts %d",
					st.CacheHits, st.CacheMisses, cacheable)
			}
		} else if st.CacheHits+st.CacheMisses != cacheable {
			r.violate("counters: CacheHits %d + CacheMisses %d != cacheable attempts %d",
				st.CacheHits, st.CacheMisses, cacheable)
		}
		if served := st.BytesServedRaw + st.BytesServedCompressed; served != clientPayload {
			r.violate("counters: server served %d payload bytes, clients received %d", served, clientPayload)
		}
	}
}

// checkGoroutines: after the server has drained and every client is done,
// the process must be back to its pre-run goroutine count (the runtime
// gets a short real-time grace period to retire exiting goroutines).
func (r *Report) checkGoroutines(before int) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			r.violate("goroutines: %d before run, %d after", before, runtime.NumGoroutine())
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// clientRecords returns client ci's records, in fetch order: its stretch
// of the client-major Records slice itself, not a copy.
func (r *Report) clientRecords(ci int) []FetchRecord {
	return r.Records[r.first[ci]:r.first[ci+1]]
}

// closeRel reports a ≈ b within energyTolerance (relative, with an
// absolute floor for near-zero values).
func closeRel(a, b float64) bool {
	diff := math.Abs(a - b)
	if diff <= energyTolerance {
		return true
	}
	return diff <= energyTolerance*math.Max(math.Abs(a), math.Abs(b))
}
