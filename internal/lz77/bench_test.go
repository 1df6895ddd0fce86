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

// benchTokenize times the matcher on the benchmark's six files, one
// dataplane block (128 kB) at a time, as a cold miss tokenises them. (An
// external test package: media.r115 is calibrated to a gzip factor, and
// gzip is built on this matcher.)
func benchTokenize(b *testing.B, level int) {
	const blockBytes = 128 * 1000
	files := workload.BenchFiles(func(p []byte) float64 {
		c, err := flate.GzipCompress(p, 6)
		if err != nil {
			b.Fatal(err)
		}
		return float64(len(p)) / float64(len(c))
	})
	for _, f := range files {
		b.Run(f.Name, func(b *testing.B) {
			m, err := lz77.NewMatcher(level)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(f.Data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for off := 0; off < len(f.Data); off += blockBytes {
					m.Tokenize(f.Data[off:min(off+blockBytes, len(f.Data))], func(lz77.Token) {})
				}
			}
		})
	}
}
