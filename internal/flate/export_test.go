package flate

import (
	"bytes"
	"math/rand"

	"repro/internal/workload"
)

// Raw DEFLATE on byte slices, for the tests of both packages: product code
// reaches Deflate and Inflate only through the gzip and zlib containers.

func CompressBytes(data []byte, level int) ([]byte, error) {
	buf := sliceWriter{b: make([]byte, 0, deflateSizeHint(len(data)))}
	if _, err := Deflate(&buf, data, level); err != nil {
		return nil, err
	}
	return buf.b, nil
}

func DecompressBytes(data []byte) ([]byte, error) {
	return Inflate(nil, bytesReader(data), 0)
}

// DifferentialCorpus covers the paper's content classes plus adversarial
// shapes for the Huffman tables.
func DifferentialCorpus() map[string][]byte {
	corpus := map[string][]byte{
		"empty": nil,
		"one":   {42},
		"runs":  bytes.Repeat([]byte{'r'}, 96*1024),
	}
	for _, c := range []struct {
		name  string
		class workload.Class
	}{
		{"source", workload.ClassSource},
		{"xml", workload.ClassXML},
		{"weblog", workload.ClassWebLog},
		{"binary", workload.ClassBinary},
		{"media", workload.ClassMedia}, // already-encoded: near-incompressible
		{"mail", workload.ClassMail},
	} {
		corpus[c.name] = workload.Generate(c.class, 128*1024, 7)
	}
	corpus["deepcode"] = DeepCodeData(96 * 1024)
	return corpus
}

// DeepCodeData draws bytes from a Fibonacci-decaying distribution: the
// literal frequencies span ~2^20, which pushes package-merge (and zlib's
// tree builder) to assign near-maximum 15-bit codes to the rare symbols.
func DeepCodeData(n int) []byte {
	weights := make([]int, 40)
	a, b := 1, 1
	for i := range weights {
		weights[i] = a
		a, b = b, a+b
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	rng := rand.New(rand.NewSource(29))
	out := make([]byte, n)
	for i := range out {
		v := rng.Intn(total)
		for s, w := range weights {
			if v < w {
				out[i] = byte(s)
				break
			}
			v -= w
		}
	}
	return out
}
