package harness

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/decider"
	"repro/internal/selective"
)

// This file is the differential soak oracle: one scenario, two policies.
// RunPaired executes the same seeded scenario twice — once with the
// static Eq. 6 decider, once with the dynamic queue-aware decider — and
// checks that swapping the policy changed only what a decision policy is
// allowed to change:
//
//   - payloads stay byte-exact: every fetch that succeeded in both runs
//     delivered identical raw bytes (same length, same CRC);
//   - modeled energy dominates: over every (corpus file, scheme)
//     artifact, scored block-by-block with the same live model, the
//     dynamic stream's total joules never exceed the static stream's;
//   - deadlines carry over: on any block where the static stream's
//     choice met the scenario's deadline class, the dynamic choice
//     meets it too.
//
// The re-encode scoring runs the real selective encoder with each policy
// (the exact code path the server's artifact builds use), so the oracle
// exercises the decider where it lives rather than a reimplementation.

// DiffReport is the outcome of one paired static-vs-dynamic run.
type DiffReport struct {
	Static  *Report
	Dynamic *Report
	// StaticJ / DynamicJ are the modeled whole-corpus energies (joules):
	// every corpus file re-encoded under each policy at every soak
	// scheme, scored with the dynamic decider's live model.
	StaticJ  float64
	DynamicJ float64
	// Violations folds both runs' own oracle failures (prefixed with the
	// run they came from) with the differential checks above.
	Violations []string
}

// OK reports whether both runs and every differential check passed.
func (d *DiffReport) OK() bool { return len(d.Violations) == 0 }

// RunPaired runs scenario s under both deciders at the same seed and
// applies the differential checks. The scenario's own Decider field is
// overridden; everything else (seed, fleet shape, faults, schedule) is
// shared, so the two runs draw identical per-client schedules and fault
// plans.
func RunPaired(s Scenario) (*DiffReport, error) {
	st, dy := s, s
	st.Decider = "static"
	dy.Decider = "dynamic"
	repS, err := Run(st)
	if err != nil {
		return nil, fmt.Errorf("static run: %w", err)
	}
	repD, err := Run(dy)
	if err != nil {
		return nil, fmt.Errorf("dynamic run: %w", err)
	}
	d := &DiffReport{Static: repS, Dynamic: repD}
	for _, v := range repS.Violations {
		d.Violations = append(d.Violations, "static run: "+v)
	}
	for _, v := range repD.Violations {
		d.Violations = append(d.Violations, "dynamic run: "+v)
	}
	d.checkPayloads()
	if err := d.checkEnergyDominance(s); err != nil {
		return nil, err
	}
	return d, nil
}

// checkPayloads aligns the two runs' records by (client, index) — the
// seeded schedule derivation is policy-independent, so name, scheme and
// mode must agree — and requires byte-exact payloads wherever both runs
// succeeded. Attempt counts and error outcomes may legitimately differ:
// changing which blocks compress changes wire timing, and with it which
// fault draws land mid-transfer.
func (d *DiffReport) checkPayloads() {
	if len(d.Static.Records) != len(d.Dynamic.Records) {
		d.Violations = append(d.Violations, fmt.Sprintf(
			"differential: %d static records vs %d dynamic", len(d.Static.Records), len(d.Dynamic.Records)))
		return
	}
	for k := range d.Static.Records {
		a, b := d.Static.Records[k], d.Dynamic.Records[k]
		if a.Client != b.Client || a.Index != b.Index || a.Name != b.Name ||
			a.Scheme != b.Scheme || a.Mode != b.Mode {
			d.Violations = append(d.Violations, fmt.Sprintf(
				"differential: schedule diverged at record %d: static c%02d f%03d %s %s %s, dynamic c%02d f%03d %s %s %s",
				k, a.Client, a.Index, a.Name, a.Scheme, a.Mode,
				b.Client, b.Index, b.Name, b.Scheme, b.Mode))
			return
		}
		if a.Err == "" && b.Err == "" && (a.Raw != b.Raw || a.CRC != b.CRC) {
			d.Violations = append(d.Violations, fmt.Sprintf(
				"differential: payload diverged on c%02d f%03d %s: static raw=%d crc=%08x, dynamic raw=%d crc=%08x",
				a.Client, a.Index, a.Name, a.Raw, a.CRC, b.Raw, b.CRC))
		}
	}
}

// checkEnergyDominance re-encodes the scenario corpus under both
// policies at every soak scheme and scores the streams block-by-block
// with the dynamic decider's live model. Dominance must hold per stream
// and in total; the deadline implication must hold per block.
func (d *DiffReport) checkEnergyDominance(s Scenario) error {
	s = s.WithDefaults()
	corpus := buildCorpus(s)
	dyn := pinnedDecider(s, s.DeadlineClass)
	rate := s.Link.BytesPerSec / 1e6
	static := selective.PaperDecider{}
	for _, f := range corpus {
		for _, scheme := range schemes {
			c, err := codec.New(scheme, 0)
			if err != nil {
				return err
			}
			encS, err := selective.Encode(f.content, c, static)
			if err != nil {
				return err
			}
			encD, err := selective.Encode(f.content, c, dyn)
			if err != nil {
				return err
			}
			if len(encS.Blocks) != len(encD.Blocks) {
				d.Violations = append(d.Violations, fmt.Sprintf(
					"differential: %s/%s: %d static blocks vs %d dynamic (chunking must be policy-independent)",
					f.name, scheme, len(encS.Blocks), len(encD.Blocks)))
				continue
			}
			var statJ, dynJ float64
			for bi := range encS.Blocks {
				bs, bd := encS.Blocks[bi], encD.Blocks[bi]
				if bs.RawLen != bd.RawLen {
					d.Violations = append(d.Violations, fmt.Sprintf(
						"differential: %s/%s block %d: raw length %d vs %d", f.name, scheme, bi, bs.RawLen, bd.RawLen))
					break
				}
				sJ, sT := scoreBlock(dyn, rate, bs)
				dJ, dT := scoreBlock(dyn, rate, bd)
				statJ += sJ
				dynJ += dJ
				// The deadline implication, blockwise: a deadline the
				// static choice met, the dynamic choice meets too.
				dec := dyn.Decide(decider.BlockContext{
					RawLen: bd.RawLen, CompLen: len(bd.Payload), RateMBps: rate,
					Class: s.DeadlineClass,
				})
				if sT <= dec.DeadlineS && dT > dec.DeadlineS*(1+1e-9) {
					d.Violations = append(d.Violations, fmt.Sprintf(
						"differential: %s/%s block %d: dynamic latency %.9gs busts deadline %.9gs the static choice met (%.9gs)",
						f.name, scheme, bi, dT, dec.DeadlineS, sT))
				}
			}
			if dynJ > statJ*(1+1e-9) {
				d.Violations = append(d.Violations, fmt.Sprintf(
					"differential: %s/%s: dynamic stream %.9g J > static %.9g J", f.name, scheme, dynJ, statJ))
			}
			d.StaticJ += statJ
			d.DynamicJ += dynJ
		}
	}
	if d.DynamicJ > d.StaticJ*(1+1e-9) {
		d.Violations = append(d.Violations, fmt.Sprintf(
			"differential: corpus total: dynamic %.9g J > static %.9g J", d.DynamicJ, d.StaticJ))
	}
	return nil
}

// scoreBlock prices one encoded block's chosen option under the live
// model: the compressed branch when the encoder compressed it, the raw
// branch otherwise.
func scoreBlock(dyn *decider.DynamicDecider, rate float64, b selective.Block) (joules, seconds float64) {
	ctx := decider.BlockContext{RawLen: b.RawLen, CompLen: len(b.Payload), RateMBps: rate}
	rawJ, compJ, rawT, compT := dyn.Evaluate(ctx)
	if b.Compressed {
		return compJ, compT
	}
	return rawJ, rawT
}
