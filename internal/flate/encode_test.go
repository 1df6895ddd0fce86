package flate_test

// Differential tests for the compression plane: every level 1-9 must
// produce streams that both the standard library and our own inflate
// reproduce exactly.

import (
	"bytes"
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
			ours.StdReadsOurs(t, name, "deflate", data, level)
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
			ours.StdReadsOurs(t, "fuzz input", "deflate", data, level)
		}
	})
}
