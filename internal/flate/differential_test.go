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
	"testing"

	ours "repro/internal/flate"
	"repro/internal/workload"
)

// TestDifferentialStdlibDecompressesOurs: everything our three
// compressors emit, the standard library must reproduce exactly.
func TestDifferentialStdlibDecompressesOurs(t *testing.T) {
	for name, data := range ours.DifferentialCorpus() {
		for _, level := range []int{1, 6, 9} {
			for _, format := range []string{"gzip", "zlib", "deflate"} {
				ours.StdReadsOurs(t, name, format, data, level)
			}
		}
	}
}

// TestDifferentialWeDecompressStdlib: everything the standard library's
// compressors emit, our table-driven inflate must reproduce exactly.
func TestDifferentialWeDecompressStdlib(t *testing.T) {
	for name, data := range ours.DifferentialCorpus() {
		for _, level := range []int{1, 6, 9} {
			for _, format := range []string{"gzip", "zlib", "deflate"} {
				ours.OursReadStd(t, name, format, data, level)
			}
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
		ours.StdReadsOurs(t, "fuzz input", "gzip", data, 9)
		ours.OursReadStd(t, "fuzz input", "gzip", data, 9)
	})
}
