package flate

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"compress/zlib"
	"io"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// Raw DEFLATE on byte slices, for the tests of both packages: product code
// reaches Deflate and Inflate only through the gzip and zlib containers.

func CompressBytes(data []byte, level int) ([]byte, error) {
	var buf sliceWriter
	if _, err := Deflate(&buf, data, level); err != nil {
		return nil, err
	}
	return buf.b, nil
}

func DecompressBytes(data []byte) ([]byte, error) {
	return Inflate(nil, data, 0)
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

// container is one of the package's formats, gzip, zlib and raw DEFLATE,
// beside the standard library's codec for it.
type container struct {
	compress, stdCompress     func([]byte, int) ([]byte, error)
	decompress, stdDecompress func([]byte) ([]byte, error)
}

var containers = map[string]container{
	"gzip": {
		GzipCompress, encodeThrough(func(w io.Writer, level int) (io.WriteCloser, error) { return gzip.NewWriterLevel(w, level) }),
		func(b []byte) ([]byte, error) { return GzipDecompress(b, 0) }, decodeThrough(func(r io.Reader) (io.Reader, error) { return gzip.NewReader(r) }),
	},
	"zlib": {
		ZlibCompress, encodeThrough(func(w io.Writer, level int) (io.WriteCloser, error) { return zlib.NewWriterLevel(w, level) }),
		func(b []byte) ([]byte, error) { return ZlibDecompress(b, 0) }, decodeThrough(func(r io.Reader) (io.Reader, error) { return zlib.NewReader(r) }),
	},
	"deflate": {
		CompressBytes, encodeThrough(func(w io.Writer, level int) (io.WriteCloser, error) { return flate.NewWriter(w, level) }),
		DecompressBytes, decodeThrough(func(r io.Reader) (io.Reader, error) { return flate.NewReader(r), nil }),
	},
}

// encodeThrough and decodeThrough make a one-shot codec of a stream
// writer and reader.
func encodeThrough(open func(io.Writer, int) (io.WriteCloser, error)) func([]byte, int) ([]byte, error) {
	return func(data []byte, level int) ([]byte, error) {
		var buf bytes.Buffer
		w, err := open(&buf, level)
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(data); err != nil {
			return nil, err
		}
		err = w.Close()
		return buf.Bytes(), err
	}
}

func decodeThrough(open func(io.Reader) (io.Reader, error)) func([]byte) ([]byte, error) {
	return func(comp []byte) ([]byte, error) {
		r, err := open(bytes.NewReader(comp))
		if err != nil {
			return nil, err
		}
		return io.ReadAll(r)
	}
}

// StdReadsOurs requires what our encoder for format ("gzip", "zlib" or
// "deflate") writes at level for data, named what in failures, to read
// back as data through the standard library's decoder and through ours.
func StdReadsOurs(tb testing.TB, what, format string, data []byte, level int) {
	tb.Helper()
	c := containers[format]
	comp, err := c.compress(data, level)
	if err != nil {
		tb.Fatalf("%s, our %s -%d: %v", what, format, level, err)
	}
	for _, d := range []struct {
		who    string
		decode func([]byte) ([]byte, error)
	}{{"the standard library", c.stdDecompress}, {"ours", c.decompress}} {
		if got, err := d.decode(comp); err != nil || !bytes.Equal(got, data) {
			tb.Fatalf("%s, our %s -%d: %s reads back %d bytes of %d, err %v", what, format, level, d.who, len(got), len(data), err)
		}
	}
}

// OursReadStd requires our decoder for format to read back as data what
// the standard library's encoder writes for it at level.
func OursReadStd(tb testing.TB, what, format string, data []byte, level int) {
	tb.Helper()
	c := containers[format]
	comp, err := c.stdCompress(data, level)
	if err != nil {
		tb.Fatalf("%s, the standard library's %s -%d: %v", what, format, level, err)
	}
	if got, err := c.decompress(comp); err != nil || !bytes.Equal(got, data) {
		tb.Fatalf("%s, the standard library's %s -%d: ours reads back %d bytes of %d, err %v", what, format, level, len(got), len(data), err)
	}
}
