package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/codec"
)

// schemes are the paper's three, in the order every per-scheme table uses.
var schemes = codec.Schemes()

// schemeIndex maps a scheme to its slot in per-scheme arrays.
func schemeIndex(s codec.Scheme) int {
	for i, x := range schemes {
		if x == s {
			return i
		}
	}
	panic(fmt.Sprintf("bench: scheme %v outside the three-way comparison", s))
}

// exactSums are the counts a pass must reproduce bit for bit: every pass
// at the same position of a workload's cycle issues the same requests, so
// these can only move when the program's wire behaviour does.
type exactSums struct {
	ops       int
	rawBytes  int64
	wireBytes int64
	joules    float64
}

func (a *exactSums) add(b exactSums) {
	a.ops += b.ops
	a.rawBytes += b.rawBytes
	a.wireBytes += b.wireBytes
	a.joules += b.joules
}

// passRec is everything one pass measured, in host units; the summary
// applies the pass's speed factor.
type passRec struct {
	refBefore, refAfter refReading // reference-kernel readings around the pass

	wall    time.Duration
	cpu     time.Duration
	stolen  time.Duration // CPU time the hypervisor kept from the machine meanwhile
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64

	failed  int
	exact   exactSums
	samples []sample
}

// sample is one verified fetch's timing in milliseconds on the clock the
// workload's handheld runs on (host for loopback, virtual for fleet-sim).
// key numbers the (file, scheme, mode) request it was; scheme indexes
// schemes.
type sample struct {
	key, scheme   int
	latMs, ttfbMs float64
}

// k scales the pass's wall-clock durations, kCPU its CPU time.
func (p *passRec) k() float64    { return speedFactor(p.refBefore.wallMs, p.refAfter.wallMs) }
func (p *passRec) kCPU() float64 { return speedFactor(p.refBefore.cpuMs, p.refAfter.cpuMs) }

// stolenShare is the part of the machine's CPU time the hypervisor took
// away while the pass was timed.
func (p *passRec) stolenShare() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(p.stolen) / (float64(p.wall) * float64(runtime.NumCPU()))
}

// timed runs fn and charges its wall time, CPU time, allocations and GC
// work to the pass. Everything a workload does outside fn (re-registering
// files, merging samples) stays off the scoreboard.
func (p *passRec) timed(fn func()) {
	before := sampleHost()
	fn()
	end := time.Now()
	after := sampleHost()
	p.wall += end.Sub(before.wall)
	p.cpu += after.cpu - before.cpu
	p.stolen += after.stolen - before.stolen
	p.mallocs += after.mallocs - before.mallocs
	p.bytes += after.bytes - before.bytes
	p.gcs += after.gcs - before.gcs
	p.pauseNs += after.pauseNs - before.pauseNs
}

// workload is one of the four benchmark workloads. A value is single-use:
// setup, then passes, then finish.
type workload interface {
	// setup builds the system under test from the seed and runs one
	// unmeasured warm-up pass, leaving it in the state measured passes
	// expect.
	setup() error
	// cycle is how many consecutive passes make one full rotation of the
	// workload's request list; runs measure whole cycles.
	cycle() int
	// virtualClock reports that latency samples are simulated time, which
	// the host's speed does not touch.
	virtualClock() bool
	// pass runs measured pass i into rec.
	pass(i int, rec *passRec) error
	// close stops the system and waits for it.
	close() error
	// check runs the end-of-run oracles, after close, over measured passes
	// totalling ops fetches.
	check(ops int) error
}

// runPasses drives w for about the given duration (whole cycles, at least
// minCycles), bracketing every pass with reference-kernel readings. before,
// when set, runs ahead of each pass, outside its timing.
func runPasses(w workload, ref *refKernel, seconds float64, minCycles int, before func(i int)) ([]passRec, error) {
	var recs []passRec
	prev, err := ref.read()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; ; i++ {
		if i%w.cycle() == 0 && i >= minCycles*w.cycle() && time.Since(start).Seconds() >= seconds {
			break
		}
		if before != nil {
			before(i)
		}
		rec := passRec{refBefore: prev}
		if err := w.pass(i, &rec); err != nil {
			return nil, err
		}
		if rec.refAfter, err = ref.read(); err != nil {
			return nil, err
		}
		prev = rec.refAfter
		recs = append(recs, rec)
	}
	return recs, nil
}

// checkExact is the replay oracle: every cycle of passes must move exactly
// the bytes and joules the first cycle did. It returns the first cycle's
// sums.
func checkExact(recs []passRec, cycle int) (exactSums, error) {
	var first exactSums
	for i, r := range recs {
		if i < cycle {
			first.add(r.exact)
			continue
		}
		if want := recs[i%cycle].exact; r.exact != want {
			return first, fmt.Errorf("pass %d moved %+v, pass %d of the first cycle moved %+v: identical requests must replay identically", i, r.exact, i%cycle, want)
		}
	}
	return first, nil
}

// summary is the end-to-end scoreboard of one run plus the normaliser's
// own readings.
type summary struct {
	ops, failed int
	metrics     map[string]float64
	// rawFetchesPerS, stolenPct and the k* fields describe the host, not
	// the program.
	rawFetchesPerS float64
	stolenPct      float64 // of the machine's CPU time, over all passes
	kMedian, kMin  float64
	// tailPct/tailMs is the highest latency percentile with enough
	// samples beyond it, over all schemes.
	tailPct, tailMs float64
	gcs             uint32
	pauseMs         float64
}

// quietStolenShare is how much of the machine's CPU time the hypervisor may
// take during a pass before the pass stops counting towards the rate and
// CPU medians. On this sandbox it takes about 1% most of the time and 10-40%
// for minutes now and then; two coupled clients lose about twice the share
// that is stolen while the reference kernel's independent workers lose it
// once, and they read it at another moment anyway. hit-small's rate read 20%
// low in such a run with every pass counted and 11% low with the quiet ones;
// over twenty runs its quartile spread went from 0.12 to 0.08.
const quietStolenShare = 0.03

// quietPasses picks the passes whose rate and CPU time count: those the
// hypervisor left alone, or the quietest third when fewer than a third
// were. shares[i] is pass i's stolen share.
func quietPasses(shares []float64) []int {
	order := make([]int, len(shares))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return shares[order[a]] < shares[order[b]] })
	n := sort.Search(len(order), func(i int) bool { return shares[order[i]] > quietStolenShare })
	return order[:max(n, (len(order)+2)/3)]
}

// summarise folds the measured passes into the end-to-end metrics. Rates
// and per-fetch CPU are medians over the quiet passes; latencies are
// per-key medians of every pass's normalised samples, averaged over the
// keys (see keyMedianMean): a median fetch is not the one a stolen core
// stalled.
func summarise(recs []passRec, cycle int, virtual bool) (summary, error) {
	s := summary{metrics: make(map[string]float64)}
	first, err := checkExact(recs, cycle)
	if err != nil {
		return s, err
	}
	var rates, rawRates, cpus, ks, all, shares []float64
	var stolen, machine time.Duration
	var lat [3]map[int][]float64
	for i := range lat {
		lat[i] = make(map[int][]float64)
	}
	ttfb := make(map[int][]float64)
	var mallocs, bytes uint64
	for i, r := range recs {
		k := r.k()
		ks = append(ks, k)
		s.ops += r.exact.ops
		s.failed += r.failed
		mallocs += r.mallocs
		bytes += r.bytes
		s.gcs += r.gcs
		s.pauseMs += float64(r.pauseNs) / 1e6
		if r.exact.ops == 0 {
			continue
		}
		ops := float64(r.exact.ops)
		shares = append(shares, r.stolenShare())
		stolen += r.stolen
		machine += r.wall * time.Duration(runtime.NumCPU())
		rawRates = append(rawRates, ops/r.wall.Seconds())
		rates = append(rates, ops/(r.wall.Seconds()*k))
		cpus = append(cpus, float64(r.cpu)/float64(time.Millisecond)*r.kCPU()/ops)
		sk := k
		if virtual {
			// Simulated latencies repeat exactly from cycle to cycle, so
			// the first cycle is the whole distribution; pooling more
			// would only let the pass count into the last digits.
			if i >= cycle {
				continue
			}
			sk = 1
		}
		for _, x := range r.samples {
			lat[x.scheme][x.key] = append(lat[x.scheme][x.key], x.latMs*sk)
			ttfb[x.key] = append(ttfb[x.key], x.ttfbMs*sk)
			all = append(all, x.latMs*sk)
		}
	}
	if s.ops == 0 {
		return s, fmt.Errorf("no fetch succeeded")
	}
	ops := float64(s.ops)
	quiet := quietPasses(shares)
	pick := func(vs []float64) []float64 {
		out := make([]float64, len(quiet))
		for i, p := range quiet {
			out[i] = vs[p]
		}
		return out
	}
	s.metrics["fetches_per_s"] = median(pick(rates))
	s.metrics["gzip_fetch_p50_ms"] = keyMedianMean(lat[0])
	s.metrics["compress_fetch_p50_ms"] = keyMedianMean(lat[1])
	s.metrics["bzip2_fetch_p50_ms"] = keyMedianMean(lat[2])
	s.metrics["ttfb_p50_ms"] = keyMedianMean(ttfb)
	s.metrics["cpu_ms_per_fetch"] = median(pick(cpus))
	s.metrics["allocs_per_fetch"] = float64(mallocs) / ops
	s.metrics["alloc_kb_per_fetch"] = float64(bytes) / 1024 / ops
	s.metrics["wire_per_raw"] = float64(first.wireBytes) / float64(first.rawBytes)
	s.metrics["model_j_per_mb"] = first.joules / (float64(first.rawBytes) / 1e6)
	s.rawFetchesPerS = median(rawRates)
	if machine > 0 {
		s.stolenPct = 100 * float64(stolen) / float64(machine)
	}
	s.kMedian = median(ks)
	s.kMin = slices.Min(ks)
	sort.Float64s(all)
	s.tailPct, s.tailMs = tail(all)
	return s, nil
}
