package selective

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/workload"
)

// probeSchemes are the codecs a probed-raw block must be hopeless under.
var probeSchemes = []codec.Scheme{codec.Gzip, codec.Compress, codec.Bzip2}

// gzip6Factor is the measure GenerateRatio and BenchFiles calibrate
// against: the dataplane's gzip at level 6.
func gzip6Factor(tb testing.TB) workload.Measurer {
	c := codec.MustNew(codec.Gzip, 6)
	return func(b []byte) float64 {
		out, err := c.Compress(b)
		if err != nil {
			tb.Fatal(err)
		}
		return codec.Factor(len(b), len(out))
	}
}

// checkNoFalseSkip holds every block of data the probe sends raw under
// PaperDecider to each scheme's real output: it must fail the decider too.
// It returns how many blocks the probe sent raw.
func checkNoFalseSkip(tb testing.TB, name string, data []byte) int {
	tb.Helper()
	d := PaperDecider{}
	skipped := 0
	for off := 0; off < len(data); off += BlockSize {
		blk := data[off:min(off+BlockSize, len(data))]
		if len(blk) < d.MinSizeBytes() {
			continue
		}
		bound := probe(blk)
		if d.ShouldCompress(len(blk), bound) {
			continue
		}
		skipped++
		for _, s := range probeSchemes {
			comp, err := codec.MustNew(s, 0).Compress(blk)
			if err != nil {
				tb.Fatal(err)
			}
			if d.ShouldCompress(len(blk), len(comp)) {
				tb.Fatalf("%s block at %d: the probe sent it raw (bound %d of %d), but %v compresses it to %d, which Eq. 6 accepts",
					name, off, bound, len(blk), s, len(comp))
			}
		}
	}
	return skipped
}

// TestProbeNoFalseSkip runs the probe over content across the range Eq. 6
// turns on — GenerateRatio from 1.00 to 1.30, every Table 2 file's class,
// the bench files — and holds each block it sends raw to every scheme's
// real output. The bench's random blocks must be sent raw, or the probe
// saves nothing.
func TestProbeNoFalseSkip(t *testing.T) {
	measure := gzip6Factor(t)
	size := 2*BlockSize + 5000
	inputs := map[string][]byte{}
	for f := 1.00; f <= 1.30+1e-9; f += 0.05 {
		inputs[fmt.Sprintf("ratio%.2f", f)] = workload.GenerateRatio(size, f, 33, measure)
	}
	for _, spec := range workload.Table2() {
		inputs[spec.Name] = workload.Generate(spec.Class, min(spec.Size, size), spec.Seed())
	}
	for _, f := range workload.BenchFiles(measure) {
		inputs[f.Name] = f.Data
	}
	skipped := map[string]int{}
	for name, data := range inputs {
		skipped[name] = checkNoFalseSkip(t, name, data)
	}
	if skipped["deck.mixed"] != 4 {
		t.Errorf("deck.mixed: the probe sent %d blocks raw, want its 4 random ones", skipped["deck.mixed"])
	}
	if skipped["ratio1.00"] == 0 {
		t.Error("GenerateRatio at 1.00: the probe sent no block raw")
	}
	t.Logf("blocks the probe sent raw: %v", skipped)
}

// FuzzProbeNoFalseSkip plants structure a codec can use into random bytes
// — an alphabet of a few dozen values drifting every few hundred bytes, a
// byte that mostly follows its predecessor, copies of earlier stretches —
// and holds every block the probe sends raw to every scheme's real output.
func FuzzProbeNoFalseSkip(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint16(2000), uint8(0), uint8(8), uint8(0))
	f.Add(uint64(3), uint16(0), uint8(0), uint8(0), uint8(90))
	f.Add(uint64(4), uint16(300), uint8(0), uint8(40), uint8(50))
	f.Add(uint64(5), uint16(31025), uint8(48), uint8(0), uint8(0)) // one whole block
	f.Add(uint64(6), uint16(31025), uint8(40), uint8(1), uint8(10))
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, spread, copies, follow uint8) {
		n := PaperDecider{}.MinSizeBytes() + int(size)*4 // up to three blocks
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]byte, n)
		rng.Read(data)
		if spread >= 16 {
			// spread values from a base that moves every chunk.
			chunk, base := 32<<rng.Intn(8), byte(0)
			for i := range data {
				if i%chunk == 0 {
					base = byte(rng.Intn(256))
				}
				data[i] = base + byte(rng.Intn(int(spread)))
			}
		}
		// follow% of bytes are their predecessor plus a fixed offset (zero:
		// runs).
		succ := byte(rng.Intn(256))
		for i := 1; i < n; i++ {
			if rng.Intn(100) < int(follow) {
				data[i] = data[i-1] + succ
			}
		}
		for range copies {
			l := 1 + rng.Intn(n/4)
			from, to := rng.Intn(n-l+1), rng.Intn(n-l+1)
			copy(data[to:to+l], data[from:from+l])
		}
		checkNoFalseSkip(t, fmt.Sprintf("seed %d", seed), data)
	})
}

// BenchmarkProbe times the probe over each bench file's blocks, against
// the level-9 gzip Compress of the same blocks it saves when it refuses.
func BenchmarkProbe(b *testing.B) {
	gz := codec.MustNew(codec.Gzip, 9)
	for _, f := range workload.BenchFiles(gzip6Factor(b)) {
		for _, k := range []struct {
			name string
			run  func([]byte)
		}{
			{"probe", func(blk []byte) { probe(blk) }},
			{"gzip9", func(blk []byte) { _, _ = gz.Compress(blk) }},
		} {
			b.Run(f.Name+"/"+k.name, func(b *testing.B) {
				b.SetBytes(int64(len(f.Data)))
				for range b.N {
					for off := 0; off < len(f.Data); off += BlockSize {
						k.run(f.Data[off:min(off+BlockSize, len(f.Data))])
					}
				}
			})
		}
	}
}

// BenchmarkEncodeBenchFiles is this layer's kernel: the selective encode
// of each bench file under PaperDecider, probe included, per scheme.
func BenchmarkEncodeBenchFiles(b *testing.B) {
	files := workload.BenchFiles(gzip6Factor(b))
	for _, s := range probeSchemes {
		c := codec.MustNew(s, 0)
		for _, f := range files {
			b.Run(s.String()+"/"+f.Name, func(b *testing.B) {
				b.SetBytes(int64(len(f.Data)))
				for range b.N {
					if _, err := Encode(f.Data, c, PaperDecider{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
