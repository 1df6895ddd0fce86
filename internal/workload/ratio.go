package workload

import "math/rand"

// Compressibility-knob generation: scenario specs (internal/scenario)
// describe workload shape not as a Table 3 content class but as a
// numeric target — "a 30 kB file that gzips 2.4x" — the way
// open-lambda's load simulator parameterizes its synthetic packages. The
// generator mixes templated text (compresses far past any realistic
// target) with incompressible random chunks and calibrates the mix against
// this repository's own gzip until the measured factor lands on target.

// ratioChunk is the interleaving granularity of the text/random mix. It is
// small against the 32 kB LZ77 window, so text chunks keep matching across
// intervening random chunks, and small against the file, so the achieved
// factor responds nearly continuously to the mix fraction: the residual
// quantization error is about ratioChunk·target/size of the target, which
// is what bounds how small a file can hit how high a factor.
const ratioChunk = 256

// Measurer reports the achieved compression factor (raw/compressed) of
// a candidate byte slice. The workload package takes it as a parameter
// rather than importing the codec itself: the codec packages' own
// differential tests generate their inputs from this package, and a
// workload → codec import would close that cycle. Callers pass the
// dataplane's gzip — internal/harness wires codec.Gzip level 6, which
// is deterministic across Go versions, so golden traces stay stable.
type Measurer func([]byte) float64

// GenerateRatio synthesises size bytes whose compression factor, as
// reported by measure, is calibrated to target, deterministically from
// seed. Targets are clamped to [1.0, 24]; the high end and very small
// sizes (under a few kB) carry the most residual error because header
// overhead and window warm-up stop amortizing. The calibration loop
// bisects on the random-chunk fraction and keeps the closest candidate —
// so the result is a pure function of (size, target, seed) for a
// deterministic measurer.
func GenerateRatio(size int, target float64, seed uint64, measure Measurer) []byte {
	if measure == nil {
		panic("workload: GenerateRatio needs a Measurer")
	}
	if size <= 0 {
		return []byte{}
	}
	if target < 1.0 {
		target = 1.0
	}
	if target > 24 {
		target = 24
	}

	// Bisect on the incompressible fraction x: factor is monotone
	// decreasing in x (more random bytes, less compression).
	lo, hi := 0.0, 1.0
	best := generateMix(size, 0, seed)
	bestErr := absf(measure(best) - target)
	for i := 0; i < 10 && bestErr > target*0.01; i++ {
		mid := (lo + hi) / 2
		cand := generateMix(size, mid, seed)
		f := measure(cand)
		if e := absf(f - target); e < bestErr {
			best, bestErr = cand, e
		}
		if f > target {
			lo = mid // still too compressible: more random
		} else {
			hi = mid
		}
	}
	return best
}

// generateMix produces size bytes where fraction x of ratioChunk-sized
// chunks are random and the rest drawn from a tiny pool of templated
// record lines (near the compressibility ceiling: whole chunks are exact
// LZ77 matches), spread evenly (Bresenham-style) so every window of the
// file carries the same mix and the factor responds smoothly to x.
func generateMix(size int, x float64, seed uint64) []byte {
	rng := rand.New(rand.NewSource(int64(seed)))
	g := newTextGen(rng)
	// Four fixed record lines per file: enough variety that the stream is
	// not one run-length degenerate case, few enough that text chunks
	// compress 40x+.
	lines := make([][]byte, 4)
	for i := range lines {
		lines[i] = []byte("<rec id=\"" + g.ident() + "\" host=\"" + g.ident() +
			"\" op=\"" + g.word() + " " + g.word() + "\" status=\"ok\"/>\n")
	}
	out := make([]byte, 0, size+ratioChunk)
	acc, li := 0.0, 0
	for len(out) < size {
		acc += x
		if acc >= 1 {
			acc--
			chunk := ratioChunk
			if rem := size - len(out); chunk > rem {
				chunk = rem
			}
			out = appendRandom(out, rng, chunk)
			continue
		}
		start := len(out)
		for len(out)-start < ratioChunk && len(out) < size {
			out = append(out, lines[li%len(lines)]...)
			li++
		}
	}
	return out[:size]
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
