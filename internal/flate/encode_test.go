package flate_test

// Differential tests for the compression plane: every level 1-9 must
// produce streams that both the standard library and our own inflate
// reproduce exactly.

import (
	"bytes"
	stdflate "compress/flate"
	"io"
	"testing"

	ours "repro/internal/flate"
	"repro/internal/workload"
)

// levelCorpus is a smaller corpus than differentialCorpus so the 9-level
// sweep stays fast while still covering the paper's content classes.
func levelCorpus() map[string][]byte {
	return map[string][]byte{
		"empty":  nil,
		"one":    {42},
		"runs":   bytes.Repeat([]byte{'r'}, 48*1024),
		"source": workload.Generate(workload.ClassSource, 64*1024, 7),
		"xml":    workload.Generate(workload.ClassXML, 64*1024, 7),
		"binary": workload.Generate(workload.ClassBinary, 64*1024, 7),
		"media":  workload.Generate(workload.ClassMedia, 64*1024, 7),
	}
}

// TestDeflateAllLevelsDifferential sweeps every compression level and
// decodes each stream through both inflaters.
func TestDeflateAllLevelsDifferential(t *testing.T) {
	for name, data := range levelCorpus() {
		for level := 1; level <= 9; level++ {
			comp, err := ours.CompressBytes(data, level)
			if err != nil {
				t.Fatalf("%s/%d: CompressBytes: %v", name, level, err)
			}
			got, err := io.ReadAll(stdflate.NewReader(bytes.NewReader(comp)))
			if err != nil {
				t.Fatalf("%s/%d: stdlib flate read: %v", name, level, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/%d: stdlib decodes our deflate differently", name, level)
			}
			got, err = ours.DecompressBytes(comp)
			if err != nil {
				t.Fatalf("%s/%d: our inflate: %v", name, level, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/%d: our inflate decodes our deflate differently", name, level)
			}
		}
	}
}

// FuzzDeflateDifferential: raw DEFLATE at the fastest and strongest levels
// must be readable by the standard library and by our inflate, byte for
// byte, on arbitrary inputs.
func FuzzDeflateDifferential(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("abracadabra"))
	f.Add(bytes.Repeat([]byte("xy"), 9000))
	f.Add(workload.Generate(workload.ClassSource, 8192, 1))
	f.Add(workload.Generate(workload.ClassMedia, 8192, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, level := range []int{1, 9} {
			comp, err := ours.CompressBytes(data, level)
			if err != nil {
				t.Fatalf("level %d: CompressBytes: %v", level, err)
			}
			got, err := io.ReadAll(stdflate.NewReader(bytes.NewReader(comp)))
			if err != nil {
				t.Fatalf("level %d: stdlib read: %v", level, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("level %d: stdlib decodes our deflate differently", level)
			}
			got, err = ours.DecompressBytes(comp)
			if err != nil {
				t.Fatalf("level %d: our inflate: %v", level, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("level %d: our inflate decodes differently", level)
			}
		}
	})
}
