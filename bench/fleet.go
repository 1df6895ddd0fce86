package main

import (
	"crypto/sha256"
	_ "embed"
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/energy"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/scenario"
)

// fleetSpec is a copy of testdata/scenarios/loadgen/fleet-10k.scn. The
// benchmark carries its own so that a later edit to the CI scenario cannot
// silently change what this ruler measures.
//
//go:embed fleet-10k.scn
var fleetSpec []byte

// fleetClients is the per-pass fleet size: thousands of parked goroutines
// like the 10k original, but a pass short enough (~0.75 s) to bracket with
// reference readings.
const fleetClients = 2500

// fleet runs the virtual-time testbed: the real proxy over simnet with a
// fleet of simulated handhelds. Host time here is simulator speed; every
// simulated statistic is exact and must repeat on every pass.
type fleet struct {
	seed   int64
	scale  float64
	spec   *scenario.Spec
	params energy.Params
	// sha is the canonical-trace digest every pass must reproduce.
	sha [sha256.Size]byte
	// last is the most recent pass's report, kept for the traced run's
	// span harvest and probes.
	last *harness.Report
	// keys numbers the (file, scheme, mode) requests in the order the
	// records first show them, which the seed fixes.
	keys map[fleetKey]int
}

type fleetKey struct {
	name   string
	scheme codec.Scheme
	mode   proxy.Mode
}

func (f *fleet) key(r harness.FetchRecord) int {
	k := fleetKey{r.Name, r.Scheme, r.Mode}
	n, ok := f.keys[k]
	if !ok {
		n = len(f.keys)
		f.keys[k] = n
	}
	return n
}

func newFleet(seed uint64, scale float64) *fleet {
	return &fleet{seed: int64(seed), scale: scale, params: energy.Params11Mbps(), keys: make(map[fleetKey]int)}
}

func (f *fleet) cycle() int         { return 1 }
func (f *fleet) virtualClock() bool { return true }

func (f *fleet) setup() error {
	spec, err := scenario.Parse(fleetSpec)
	if err != nil {
		return err
	}
	spec.Clients = max(50, int(fleetClients*f.scale))
	if err := spec.Validate(); err != nil {
		return err
	}
	f.spec = spec
	var warm passRec
	if err := f.run(&warm); err != nil {
		return err
	}
	f.sha = sha256.Sum256([]byte(f.last.Trace()))
	return nil
}

func (f *fleet) pass(i int, rec *passRec) error {
	if err := f.run(rec); err != nil {
		return err
	}
	if sha := sha256.Sum256([]byte(f.last.Trace())); sha != f.sha {
		return fmt.Errorf("pass %d: canonical trace %x differs from the warm-up's %x at the same seed", i, sha[:6], f.sha[:6])
	}
	return nil
}

// run executes the scenario once and folds its records into rec.
func (f *fleet) run(rec *passRec) error {
	var rep *harness.Report
	var err error
	rec.timed(func() { rep, err = f.spec.Run(f.seed) })
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("fleet oracle: %s (%d violations)", rep.Violations[0], len(rep.Violations))
	}
	f.last = rep
	for _, r := range rep.Records {
		sd, ok := fetchSpan(rep, r)
		if !ok {
			rec.failed++
			continue
		}
		st := r.Stats
		rec.exact.add(exactSums{ops: 1, rawBytes: int64(st.RawBytes), wireBytes: int64(st.WireBytes), joules: modelJoules(f.params, st.RawBytes, st.WireBytes, st.BlocksCompressed)})
		var ttfb float64
		for _, p := range sd.Phases {
			if p.Name == "dial" || p.Name == "header" {
				ttfb += ms(p.Duration)
			}
		}
		rec.samples = append(rec.samples, sample{f.key(r), schemeIndex(r.Scheme), ms(r.Virtual), ttfb})
	}
	// The spans were charged by the client from the same FetchStats; the
	// two sums may differ only by floating-point association.
	spanJ, _ := rep.EnergyDelivered()
	if rel := math.Abs(spanJ-rec.exact.joules) / rec.exact.joules; rel > 1e-9 {
		return fmt.Errorf("span joules %.12g differ from the model's %.12g by %.3g", spanJ, rec.exact.joules, rel)
	}
	return nil
}

// fetchSpan finds the client span of a fetch that succeeded: span k of
// client i is that client's fetch k.
func fetchSpan(rep *harness.Report, r harness.FetchRecord) (obs.SpanData, bool) {
	if r.Err != "" || r.Client >= len(rep.Spans) || r.Index >= len(rep.Spans[r.Client]) {
		return obs.SpanData{}, false
	}
	return rep.Spans[r.Client][r.Index], true
}

func (f *fleet) close() error        { return nil }
func (f *fleet) check(ops int) error { return nil }

// modelJoules is the handheld's modeled energy for one finished fetch: Eq.
// 3 (interleaved) when compressed blocks crossed the wire, Eq. 1 (plain
// download) otherwise — the rule proxy.Client charges its spans by.
func modelJoules(p energy.Params, rawBytes, wireBytes, blocksCompressed int) float64 {
	s, sc := float64(rawBytes)/1e6, float64(wireBytes)/1e6
	if blocksCompressed > 0 {
		return p.InterleavedBreakdown(s, sc).Total()
	}
	return p.DownloadBreakdown(s).Total()
}
