//go:build !race

package huffman

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// TestDecodeLSBZeroAlloc: after the lazy table build, the fast path must
// not allocate per symbol — it is the inflate inner loop.
func TestDecodeLSBZeroAlloc(t *testing.T) {
	lengths := tableCodes()["deep15"]
	d, err := NewDecoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	syms := randomSymbols(lengths, 512, 21)
	enc := encodeSymbols(t, lengths, syms, false)
	d.lsbTable() // build outside the measured region

	br := bitio.NewLSBReader(bytes.NewReader(enc))
	allocs := testing.AllocsPerRun(64, func() {
		if _, err := d.DecodeLSB(br); err != nil {
			// Reset and continue once the stream drains.
			br = bitio.NewLSBReader(bytes.NewReader(enc))
		}
	})
	if allocs > 0.5 {
		t.Errorf("DecodeLSB allocates %.2f objects per symbol, want 0", allocs)
	}
}

// TestBuildLengthsIntoZeroSteadyStateAllocs pins the pooled scratch: after
// warm-up, repeated builds over the DEFLATE lit/len alphabet stay within
// sort.Slice's couple of interface/closure allocations — the package-merge
// lists themselves must all come from the pooled scratch. (Excluded under
// -race, whose instrumentation inflates the count.)
func TestBuildLengthsIntoZeroSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	freq := make([]int, 286)
	for i := range freq {
		freq[i] = rng.Intn(5000)
	}
	lengths := make([]uint8, 286)
	if err := BuildLengthsInto(lengths, freq, 15); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := BuildLengthsInto(lengths, freq, 15); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 4 {
		t.Fatalf("BuildLengthsInto allocates %.1f per call, want <= 4", avg)
	}
}
