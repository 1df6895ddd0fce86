package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(i + 1)
		}
		return vs
	}
	cases := []struct {
		n       int
		wantPct float64
	}{
		{5, 50},          // nothing has ten samples beyond it
		{40, 75},         // p75 leaves 10 beyond; p90 only 4
		{100, 90},        // p90 leaves 10; p95 leaves 5
		{200, 95},        // p95 leaves 10
		{1000, 99},       // p99 leaves 10
		{10_000, 99.9},   // p99.9 leaves 10
		{100_000, 99.99}, // p99.99 leaves 10
		{99_999, 99.9},   // one short of ten beyond p99.99
	}
	for _, c := range cases {
		vs := ramp(c.n)
		pct, v := tail(vs)
		if pct != c.wantPct {
			t.Errorf("n=%d: picked p%g, want p%g", c.n, pct, c.wantPct)
			continue
		}
		beyond := 0
		for _, x := range vs {
			if x > v {
				beyond++
			}
		}
		if pct != 50 && beyond < tailBeyond {
			t.Errorf("n=%d: p%g = %g has only %d samples beyond it", c.n, pct, v, beyond)
		}
	}
	if pct, v := tail(nil); pct != 0 || v != 0 {
		t.Errorf("empty input: got p%g = %g", pct, v)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	// A fetch's shape: dial, header, then recv with decompress running
	// inside it, and verify misplaced past the end of the root.
	root := interval{0, 1000}
	children := []interval{
		{0, 100},     // dial
		{100, 250},   // header
		{250, 900},   // recv
		{250, 700},   // decompress, wholly inside recv
		{1000, 1040}, // verify, stamped after the root ended
	}
	if got := unionLen(root.start, root.end, append([]interval(nil), children...)); got != 900 {
		t.Errorf("union = %d, want 900 (overlap counted once, out-of-root clipped)", got)
	}
	if got := selfTime(root.start, root.end, children); got != 100 {
		t.Errorf("self time = %d, want 100", got)
	}
	// Partial overlap and a gap.
	if got := unionLen(0, 100, []interval{{10, 40}, {30, 60}, {80, 120}}); got != 70 {
		t.Errorf("union = %d, want 70", got)
	}
	if got := selfTime(0, 100, nil); got != 100 {
		t.Errorf("childless self time = %d, want 100", got)
	}
}

func TestSpreadMatchesExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

// TestNormaliserCancelsASlowMachine builds forty identical passes, then
// slows every other one by 30% — the pass's work and the reference kernel
// alike, as a throttled host would. The normalised medians must stay
// where the undisturbed run put them while the raw median moves.
func TestNormaliserCancelsASlowMachine(t *testing.T) {
	build := func(slowdown float64) []passRec {
		var recs []passRec
		for i := 0; i < 40; i++ {
			f := 1.0
			if i%2 == 1 {
				f = slowdown
			}
			// Half the passes are slow, so the raw median lands between
			// the two speeds; give the slow ones a little jitter to keep
			// the sample realistic.
			f *= 1 + 0.01*float64(i%5)
			rec := passRec{
				refBefore: refReading{refNominalMs * f, refNominalMs * f},
				refAfter:  refReading{refNominalMs * f, refNominalMs * f},
				wall:      time.Duration(float64(500*time.Millisecond) * f),
				cpu:       time.Duration(float64(800*time.Millisecond) * f),
				exact:     exactSums{ops: 1000, rawBytes: 1 << 20, wireBytes: 1 << 19, joules: 3},
			}
			for s := range schemes {
				for j := 0; j < 50; j++ {
					rec.samples = append(rec.samples, sample{key: 10*s + j%4, scheme: s, latMs: (0.5 + 0.01*float64(j)) * f, ttfbMs: 0.2 * f})
				}
			}
			recs = append(recs, rec)
		}
		return recs
	}
	calm, err := summarise(build(1), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := summarise(build(1.3), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"fetches_per_s", "gzip_fetch_p50_ms", "ttfb_p50_ms", "cpu_ms_per_fetch"} {
		if rel := math.Abs(noisy.metrics[m]-calm.metrics[m]) / calm.metrics[m]; rel > 0.03 {
			t.Errorf("%s moved %.1f%% under a 30%% slowdown of half the passes (calm %g, noisy %g)", m, 100*rel, calm.metrics[m], noisy.metrics[m])
		}
	}
	if rel := math.Abs(noisy.rawFetchesPerS-calm.rawFetchesPerS) / calm.rawFetchesPerS; rel < 0.10 {
		t.Errorf("raw rate moved only %.1f%%: the disturbance did not reach the unnormalised numbers", 100*rel)
	}
}

func TestReplayOracleRejectsADriftingPass(t *testing.T) {
	same := exactSums{ops: 12, rawBytes: 100, wireBytes: 40, joules: 1.5}
	recs := []passRec{{exact: same}, {exact: same}, {exact: same}}
	if _, err := checkExact(recs, 1); err != nil {
		t.Fatalf("identical passes rejected: %v", err)
	}
	recs[2].exact.wireBytes++
	if _, err := checkExact(recs, 1); err == nil {
		t.Fatal("a pass that moved one more wire byte was accepted")
	}
	// With a three-pass cycle, pass 3 is compared with pass 0, not pass 2.
	a, b := same, same
	b.wireBytes = 41
	cyc := []passRec{{exact: a}, {exact: b}, {exact: a}, {exact: a}, {exact: b}, {exact: a}}
	first, err := checkExact(cyc, 3)
	if err != nil {
		t.Fatalf("cycle replay rejected: %v", err)
	}
	if first.ops != 36 || first.wireBytes != 121 {
		t.Fatalf("first cycle sums = %+v", first)
	}
}

// TestStolenCoresLeaveCPUPerFetchAlone: when the hypervisor takes the cores
// away, wall time stretches (for the pass and the reference kernel alike)
// but CPU time does not. Scaling CPU time by the wall-clock factor would
// then report a cheaper fetch; it is scaled by the kernel's own CPU time.
func TestStolenCoresLeaveCPUPerFetchAlone(t *testing.T) {
	build := func(steal float64) []passRec {
		ref := refReading{wallMs: refNominalMs * steal, cpuMs: refNominalMs}
		return []passRec{{
			refBefore: ref, refAfter: ref,
			wall:    time.Duration(float64(500*time.Millisecond) * steal),
			cpu:     800 * time.Millisecond,
			exact:   exactSums{ops: 1000, rawBytes: 1 << 20, wireBytes: 1 << 19, joules: 3},
			samples: []sample{{latMs: 0.5 * steal, ttfbMs: 0.2 * steal}},
		}}
	}
	calm, err := summarise(build(1), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	stolen, err := summarise(build(1.6), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"cpu_ms_per_fetch", "fetches_per_s", "gzip_fetch_p50_ms"} {
		if rel := math.Abs(stolen.metrics[m]-calm.metrics[m]) / calm.metrics[m]; rel > 1e-9 {
			t.Errorf("%s moved %.1f%% when 60%% of the wall clock was stolen (calm %g, stolen %g)", m, 100*rel, calm.metrics[m], stolen.metrics[m])
		}
	}
}

func TestKeyMedianMeanWeighsKeysNotSamples(t *testing.T) {
	// A fast key drawn nine times and a slow key drawn three times: the
	// pooled median would sit on the fast cluster.
	byKey := map[int][]float64{
		7: {1.2, 0.9, 1, 1.1, 1, 0.8, 1, 1.3, 1},
		2: {12, 10, 11},
	}
	if got := keyMedianMean(byKey); got != 6 {
		t.Errorf("keyMedianMean = %g, want (1+11)/2", got)
	}
	if got := keyMedianMean(nil); got != 0 {
		t.Errorf("no samples: got %g", got)
	}
}

// TestQuietPassesCarryTheRate: passes the hypervisor disturbed read slow
// even after normalising (the reference kernel is read at another moment);
// while at least a third of the passes were left alone, only those count
// towards the rate and CPU medians, and latencies keep every sample.
func TestQuietPassesCarryTheRate(t *testing.T) {
	build := func(disturbed int) []passRec {
		var recs []passRec
		for i := 0; i < 30; i++ {
			wall := 500 * time.Millisecond
			rec := passRec{
				refBefore: refReading{refNominalMs, refNominalMs},
				refAfter:  refReading{refNominalMs, refNominalMs},
				exact:     exactSums{ops: 1000, rawBytes: 1 << 20, wireBytes: 1 << 19, joules: 3},
				samples:   []sample{{latMs: 0.5, ttfbMs: 0.2}},
			}
			if i < disturbed {
				// A fifth of the machine's CPU time stolen; the coupled
				// clients lose twice that.
				wall = wall * 10 / 6
				rec.stolen = time.Duration(0.2 * float64(wall) * float64(runtime.NumCPU()))
			}
			rec.wall, rec.cpu = wall, 800*time.Millisecond
			recs = append(recs, rec)
		}
		return recs
	}
	calm, err := summarise(build(0), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, disturbed := range []int{10, 20} {
		got, err := summarise(build(disturbed), 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if got.metrics["fetches_per_s"] != calm.metrics["fetches_per_s"] {
			t.Errorf("%d of 30 passes disturbed: rate %g, undisturbed %g", disturbed, got.metrics["fetches_per_s"], calm.metrics["fetches_per_s"])
		}
		if got.stolenPct <= 0 {
			t.Errorf("%d of 30 passes disturbed: stolen share reads %g%%", disturbed, got.stolenPct)
		}
	}
	// With every pass disturbed there is nothing quiet to fall back on: the
	// quietest third is used and the run reads slow, which stolenPct shows.
	all, err := summarise(build(30), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if all.metrics["fetches_per_s"] >= calm.metrics["fetches_per_s"] {
		t.Errorf("a wholly disturbed run read %g, no slower than the calm %g", all.metrics["fetches_per_s"], calm.metrics["fetches_per_s"])
	}
	if got := quietPasses([]float64{0.5, 0.01, 0.2, 0.02, 0.3, 0.4}); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("quietPasses = %v, want the two passes under the threshold", got)
	}
	if got := quietPasses([]float64{0.5, 0.1, 0.2, 0.3, 0.4, 0.6}); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("quietPasses = %v, want the quietest third", got)
	}
}
