package lz77_test

import (
	"testing"

	"repro/internal/flate"
	"repro/internal/lz77"
	"repro/internal/workload"
)

func BenchmarkTokenizeLevel1(b *testing.B) { benchTokenize(b, 1) }
func BenchmarkTokenizeLevel6(b *testing.B) { benchTokenize(b, 6) }
func BenchmarkTokenizeLevel9(b *testing.B) { benchTokenize(b, 9) }

// benchTokenize times the matcher on one dataplane block (128 kB) of program
// source and of the class of the benchmark's media.r115 — bytes calibrated
// to gzip 1.15x, where nearly every chain candidate is a hash collision and
// the block ends up sent raw. (An external test package: the calibration
// needs gzip, which is built on this matcher.)
func benchTokenize(b *testing.B, level int) {
	const blockBytes = 128 * 1000
	gzipFactor := func(p []byte) float64 {
		c, err := flate.GzipCompress(p, 6)
		if err != nil {
			b.Fatal(err)
		}
		return float64(len(p)) / float64(len(c))
	}
	for _, in := range []struct {
		name string
		data []byte
	}{
		{"text", workload.Generate(workload.ClassSource, blockBytes, 22)},
		{"media.r115", workload.GenerateRatio(blockBytes, 1.15, 22, gzipFactor)},
	} {
		b.Run(in.name, func(b *testing.B) {
			m, err := lz77.NewMatcher(level)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(in.data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Tokenize(in.data, func(lz77.Token) {})
			}
		})
	}
}
