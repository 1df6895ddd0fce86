package main

import (
	"math"
	"sort"
)

// median returns the middle value of vs (mean of the two middle values for
// an even count); 0 for an empty slice. vs is sorted in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// keyMedianMean is the location estimate behind every *_p50_ms metric:
// the median latency of each key (one file, scheme and mode), averaged over
// the keys. Every key is requested equally often, so this is the request
// mix's typical latency. Pooled, the samples are multi-modal (one cluster
// per key) and a pooled median or trimmed mean moves with how many samples
// of each cluster a run happened to draw; on recorded miss-large samples
// the pooled interquartile mean spread a quarter to a half wider between
// runs than this. The sample slices are sorted in place.
func keyMedianMean(byKey map[int][]float64) float64 {
	if len(byKey) == 0 {
		return 0
	}
	keys := make([]int, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Ints(keys) // a fixed summation order: exact inputs give an exact mean
	var sum float64
	for _, k := range keys {
		sum += median(byKey[k])
	}
	return sum / float64(len(keys))
}

// tailBeyond is how many samples must lie above a percentile before it is
// worth reporting: with fewer, the "tail" is a handful of outliers.
const tailBeyond = 10

// tailPercentiles are the candidates, highest first, in hundredths of a
// percent so the arithmetic stays in integers.
var tailPercentiles = []int{9999, 9990, 9900, 9500, 9000, 7500}

// tail picks the highest candidate percentile that still has at least
// tailBeyond samples beyond it and returns it with its value. sorted must
// be ascending. With too few samples for any candidate it reports the
// median as percentile 50.
func tail(sorted []float64) (pct, value float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	for _, p := range tailPercentiles {
		if beyond := n * (10000 - p) / 10000; beyond >= tailBeyond {
			return float64(p) / 100, sorted[n-1-beyond]
		}
	}
	return 50, sorted[(n-1)/2]
}

// interval is a half-open span of time in nanoseconds on one clock.
type interval struct{ start, end int64 }

// unionLen returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once: the part of a parent span its children
// account for. ivs is reordered.
func unionLen(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var covered int64
	cur := lo
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			covered += e - s
			cur = e
		}
	}
	return covered
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(lo, hi int64, children []interval) int64 {
	return (hi - lo) - unionLen(lo, hi, children)
}

// spread is (q3-q1)/median by the inclusive-less "exclusive" quartile rule
// Python's statistics.quantiles(values, n=4) uses, so NOISE.md reports the
// same number the acceptance check computes.
func spread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}
