package selective_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/decider"
	"repro/internal/energy"
	"repro/internal/selective"
)

// TestDecisionMonotoneInCompressionRatio: for a fixed raw size, "compress"
// must be monotone in the compression factor — if a decider says compress
// at factor f, it must also say compress at every better factor. A
// violation would mean the decider can flip back to "don't compress" as
// compression gets MORE effective, which breaks the threshold-factor
// framing of Section 4.3 (compress iff f exceeds a per-size threshold) —
// and the encoder's probe, which sends a block raw when its decider
// refuses the best size any codec could reach: that is sound only for a
// decider monotone down to one byte. Checked for every decider in the
// repository — the dynamic one under every swept link rate, power-save
// state, queue depth and deadline class — across seeded random raw sizes
// spanning both branches of Eq. 6.
func TestDecisionMonotoneInCompressionRatio(t *testing.T) {
	type sweep struct {
		name    string
		fn      func(raw, comp int) bool
		anchors bool // held to Eq. 6's two anchors below
		sizes   int  // how many of the seeded sizes to sweep
	}
	model := selective.ModelDecider{Params: energy.Params11Mbps()}
	deciders := []sweep{
		{"paper", selective.PaperDecider{}.ShouldCompress, true, 207},
		{"model", model.ShouldCompress, true, 207},
		{"always", selective.AlwaysCompress{}.ShouldCompress, false, 207},
	}
	// The two upload(in=…) sweeps left with UploadDecider, when the
	// upload direction was retired.
	for _, rate := range []float64{0.60, 0.40, 0.18, 0.10} {
		for _, ps := range []bool{false, true} {
			for _, queue := range []int{0, 4, 32} {
				for _, class := range []decider.Class{decider.ClassNone, decider.ClassRelaxed, decider.ClassStandard, decider.ClassStrict} {
					d := decider.New(decider.Config{
						Class: class,
						Link:  func() (float64, bool) { return rate, ps },
						Queue: func() int { return queue },
					})
					name := fmt.Sprintf("dynamic(rate=%g ps=%t queue=%d class=%s)", rate, ps, queue, class)
					deciders = append(deciders, sweep{name, d.ShouldCompress, false, 24})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(61))
	// Cover the exact block size the selective encoder feeds the decider,
	// the 0.128 MB branch point and the file threshold, then below and
	// above them at random.
	sizes := []int{selective.BlockSize, 127_999, 3_900, 3_899, 1, 1_000_000}
	for i := 0; i < 201; i++ {
		sizes = append(sizes, 1+rng.Intn(2_000_000))
	}

	for _, d := range deciders {
		for _, raw := range sizes[:d.sizes] {
			// Sweep compressed size downward (factor improves) to a single
			// byte; once the decision turns true it must never turn false.
			turned := false
			for comp := raw; comp >= 1; comp -= 1 + comp/64 {
				got := d.fn(raw, comp)
				if turned && !got {
					t.Fatalf("%s is not monotone at raw=%d: compress at a worse factor but not at comp=%d, so the probe must not apply to it",
						d.name, raw, comp)
				}
				turned = turned || got
			}
			if !d.anchors {
				continue
			}
			// Sanity anchors: Eq. 6 never compresses when the output is
			// not smaller, and compresses a large file at a near-infinite
			// factor.
			if d.fn(raw, raw) {
				t.Fatalf("%s: compresses at factor 1.0 (raw=%d)", d.name, raw)
			}
			if raw >= 128_000 && !d.fn(raw, 1) {
				t.Fatalf("%s: refuses to compress raw=%d at factor %d", d.name, raw, raw)
			}
		}
	}
}
