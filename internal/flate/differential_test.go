package flate_test

// Differential correctness tests for the fast decompression kernels: the
// table-driven inflate path must agree byte-for-byte with Go's standard
// library in both directions (our compressor -> stdlib decompressor, and
// stdlib compressor -> our decompressor) over the paper's workload corpus,
// at light/default/best effort, for all three containers (gzip, zlib, raw
// DEFLATE). A skew-frequency generator drives the dynamic Huffman trees
// toward the 15-bit depth limit so the second-level lookup tables are
// exercised, not just the 9-bit root.

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"compress/zlib"
	"io"
	"testing"

	ours "repro/internal/flate"
	"repro/internal/workload"
)

// TestDifferentialStdlibDecompressesOurs: everything our three
// compressors emit, the standard library must reproduce exactly.
func TestDifferentialStdlibDecompressesOurs(t *testing.T) {
	for name, data := range ours.DifferentialCorpus() {
		for _, level := range []int{1, 6, 9} {
			comp, err := ours.GzipCompress(data, level)
			if err != nil {
				t.Fatalf("%s/%d: GzipCompress: %v", name, level, err)
			}
			zr, err := gzip.NewReader(bytes.NewReader(comp))
			if err != nil {
				t.Fatalf("%s/%d: stdlib gzip reader: %v", name, level, err)
			}
			got, err := io.ReadAll(zr)
			if err != nil {
				t.Fatalf("%s/%d: stdlib gzip read: %v", name, level, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/%d: stdlib decodes our gzip differently", name, level)
			}

			comp, err = ours.ZlibCompress(data, level)
			if err != nil {
				t.Fatalf("%s/%d: ZlibCompress: %v", name, level, err)
			}
			wr, err := zlib.NewReader(bytes.NewReader(comp))
			if err != nil {
				t.Fatalf("%s/%d: stdlib zlib reader: %v", name, level, err)
			}
			got, err = io.ReadAll(wr)
			if err != nil {
				t.Fatalf("%s/%d: stdlib zlib read: %v", name, level, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/%d: stdlib decodes our zlib differently", name, level)
			}

			comp, err = ours.CompressBytes(data, level)
			if err != nil {
				t.Fatalf("%s/%d: CompressBytes: %v", name, level, err)
			}
			fr := flate.NewReader(bytes.NewReader(comp))
			got, err = io.ReadAll(fr)
			if err != nil {
				t.Fatalf("%s/%d: stdlib flate read: %v", name, level, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/%d: stdlib decodes our deflate differently", name, level)
			}
		}
	}
}

// TestDifferentialWeDecompressStdlib: everything the standard library's
// compressors emit, our table-driven inflate must reproduce exactly.
func TestDifferentialWeDecompressStdlib(t *testing.T) {
	for name, data := range ours.DifferentialCorpus() {
		for _, level := range []int{1, 6, 9} {
			var buf bytes.Buffer
			zw, _ := gzip.NewWriterLevel(&buf, level)
			zw.Write(data)
			zw.Close()
			got, err := ours.GzipDecompress(buf.Bytes(), 0)
			if err != nil {
				t.Fatalf("%s/%d: GzipDecompress(stdlib): %v", name, level, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/%d: we decode stdlib gzip differently", name, level)
			}

			buf.Reset()
			wr, _ := zlib.NewWriterLevel(&buf, level)
			wr.Write(data)
			wr.Close()
			got, err = ours.ZlibDecompress(buf.Bytes(), 0)
			if err != nil {
				t.Fatalf("%s/%d: ZlibDecompress(stdlib): %v", name, level, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/%d: we decode stdlib zlib differently", name, level)
			}

			buf.Reset()
			fw, _ := flate.NewWriter(&buf, level)
			fw.Write(data)
			fw.Close()
			got, err = ours.DecompressBytes(buf.Bytes())
			if err != nil {
				t.Fatalf("%s/%d: DecompressBytes(stdlib): %v", name, level, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/%d: we decode stdlib deflate differently", name, level)
			}
		}
	}
}

// TestDifferentialStreamingReader holds the incremental Reader equal to
// the stdlib over the corpus, read through a small buffer so the
// mid-block pause/resume path runs constantly.
func TestDifferentialStreamingReader(t *testing.T) {
	for name, data := range ours.DifferentialCorpus() {
		var buf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&buf, 9)
		zw.Write(data)
		zw.Close()
		zr := ours.NewReader(bytes.NewReader(buf.Bytes()))
		var got bytes.Buffer
		if _, err := io.CopyBuffer(&got, zr, make([]byte, 777)); err != nil {
			t.Fatalf("%s: streaming read: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), data) {
			t.Fatalf("%s: streaming reader decodes stdlib gzip differently", name)
		}
	}
}

// TestDecompressAppendVariants: the append-capable entry points must
// extend the destination in place and only checksum the appended bytes.
func TestDecompressAppendVariants(t *testing.T) {
	data := workload.Generate(workload.ClassSource, 64*1024, 3)
	prefix := []byte("already-here")
	gz, err := ours.GzipCompress(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ours.GzipDecompressAppend(append([]byte(nil), prefix...), gz, 0)
	if err != nil {
		t.Fatalf("GzipDecompressAppend: %v", err)
	}
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], data) {
		t.Fatal("GzipDecompressAppend did not extend the prefix correctly")
	}
	zl, err := ours.ZlibCompress(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	out, err = ours.ZlibDecompressAppend(append([]byte(nil), prefix...), zl, 0)
	if err != nil {
		t.Fatalf("ZlibDecompressAppend: %v", err)
	}
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], data) {
		t.Fatal("ZlibDecompressAppend did not extend the prefix correctly")
	}
	// maxSize bounds the appended bytes, not the whole slice.
	if _, err := ours.GzipDecompressAppend(append([]byte(nil), prefix...), gz, len(data)); err != nil {
		t.Fatalf("append with exact budget: %v", err)
	}
	if _, err := ours.GzipDecompressAppend(nil, gz, len(data)-1); err == nil {
		t.Fatal("undersized budget not enforced")
	}
}

// FuzzGzipDifferential cross-checks both directions per input: our gzip
// must be stdlib-readable, and stdlib gzip must decode identically here.
func FuzzGzipDifferential(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("a"))
	f.Add(bytes.Repeat([]byte("ab"), 4096))
	f.Add(ours.DeepCodeData(4096)) // drives 15-bit Huffman codes
	f.Add(workload.Generate(workload.ClassSource, 8192, 1))
	f.Add(workload.Generate(workload.ClassMedia, 8192, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		comp, err := ours.GzipCompress(data, 9)
		if err != nil {
			t.Fatalf("GzipCompress: %v", err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(comp))
		if err != nil {
			t.Fatalf("stdlib reader on our gzip: %v", err)
		}
		got, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("stdlib read on our gzip: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("stdlib decodes our gzip differently")
		}
		var buf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&buf, 9)
		zw.Write(data)
		zw.Close()
		got, err = ours.GzipDecompress(buf.Bytes(), 0)
		if err != nil {
			t.Fatalf("our decode of stdlib gzip: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("we decode stdlib gzip differently")
		}
	})
}
