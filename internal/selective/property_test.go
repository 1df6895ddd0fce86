package selective

import (
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/energy"
	"repro/internal/workload"
)

// Property tests for the Equation 6 decision procedure. These do not
// check particular numbers; they check the shape of the decision surface
// that the selective scheme's correctness argument rests on.

// TestDecisionMonotoneThresholdFactor cross-checks the sweep against the
// model's closed-form threshold: the decision must flip exactly where
// ThresholdFactor says it does (within one sweep step).
func TestDecisionMonotoneThresholdFactor(t *testing.T) {
	p := energy.Params11Mbps()
	d := ModelDecider{Params: p}
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 100; i++ {
		raw := 10_000 + rng.Intn(1_500_000)
		thr := p.ThresholdFactor(float64(raw) / 1e6)
		if thr <= 1 {
			continue
		}
		// Just below the threshold factor: must not compress; comfortably
		// above: must compress. (±2% keeps clear of the boundary itself.)
		below := int(float64(raw) / (thr * 0.98))
		above := int(float64(raw) / (thr * 1.02))
		if below > 0 && d.ShouldCompress(raw, below) {
			t.Fatalf("raw=%d: compresses below threshold factor %.3f", raw, thr)
		}
		if above > 0 && !d.ShouldCompress(raw, above) {
			t.Fatalf("raw=%d: refuses above threshold factor %.3f", raw, thr)
		}
	}
}

// TestSelectiveNeverWorseThanRaw is the paper's headline claim for the
// adaptive scheme ("the compression tool no longer incurs higher energy
// cost than no compression for any file"), stated as an exact property of
// the model-driven decider: for ANY input, summing the Table 1 energy
// model over the encoder's per-block choices can never exceed sending
// every block raw. This holds by construction — a block is compressed only
// when InterleavedEnergy beats DownloadEnergy for that block — and this
// test pins the construction against regressions in either the encoder's
// decision plumbing or the model.
func TestSelectiveNeverWorseThanRaw(t *testing.T) {
	p := energy.Params11Mbps()
	d := ModelDecider{Params: p}
	c := codec.MustNew(codec.Zlib, 0)
	rng := rand.New(rand.NewSource(63))

	classes := []workload.Class{
		workload.ClassMail, workload.ClassHTML, workload.ClassXML,
		workload.ClassSource, workload.ClassRandom, workload.ClassBinary,
	}
	for i := 0; i < 60; i++ {
		class := classes[rng.Intn(len(classes))]
		size := 1 + rng.Intn(900_000)
		data := workload.Generate(class, size, uint64(1000+i))

		enc, err := Encode(data, c, d)
		if err != nil {
			t.Fatal(err)
		}
		var selective, allRaw float64
		for _, b := range enc.Blocks {
			s := float64(b.RawLen) / 1e6
			allRaw += p.DownloadEnergy(s)
			if b.Compressed {
				selective += p.InterleavedEnergy(s, float64(len(b.Payload))/1e6)
			} else {
				selective += p.DownloadEnergy(s)
			}
		}
		if selective > allRaw {
			t.Errorf("%v/%dB: selective modeled energy %.6f J > all-raw %.6f J",
				class, size, selective, allRaw)
		}
	}
}
