package huffman

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitio"
)

func TestBuildLengthsSimple(t *testing.T) {
	// Classic example: frequencies 1,1,2,4 should give lengths 3,3,2,1.
	lens, err := BuildLengths([]int{1, 1, 2, 4}, 15)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{3, 3, 2, 1}
	for i := range want {
		if lens[i] != want[i] {
			t.Errorf("symbol %d: got len %d, want %d (all: %v)", i, lens[i], want[i], lens)
		}
	}
}

func TestBuildLengthsZeroFreqs(t *testing.T) {
	lens, err := BuildLengths([]int{0, 5, 0, 7, 0}, 15)
	if err != nil {
		t.Fatal(err)
	}
	if lens[0] != 0 || lens[2] != 0 || lens[4] != 0 {
		t.Errorf("zero-frequency symbols must get zero length: %v", lens)
	}
	if lens[1] != 1 || lens[3] != 1 {
		t.Errorf("two symbols should get one bit each: %v", lens)
	}
}

func TestBuildLengthsSingleSymbol(t *testing.T) {
	lens, err := BuildLengths([]int{0, 0, 9, 0}, 15)
	if err != nil {
		t.Fatal(err)
	}
	if lens[2] != 1 {
		t.Errorf("single used symbol should get length 1, got %v", lens)
	}
}

func TestBuildLengthsEmpty(t *testing.T) {
	lens, err := BuildLengths([]int{0, 0, 0}, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lens {
		if l != 0 {
			t.Fatalf("expected all-zero lengths, got %v", lens)
		}
	}
}

func TestBuildLengthsRespectsMaxBits(t *testing.T) {
	// Exponential frequencies force deep trees without a limit.
	freq := make([]int, 20)
	f := 1
	for i := range freq {
		freq[i] = f
		f *= 2
		if f > 1<<28 {
			f = 1 << 28
		}
	}
	for _, maxBits := range []int{5, 7, 9, 15} {
		lens, err := BuildLengths(freq, maxBits)
		if err != nil {
			t.Fatalf("maxBits %d: %v", maxBits, err)
		}
		for s, l := range lens {
			if int(l) > maxBits {
				t.Errorf("maxBits %d: symbol %d got length %d", maxBits, s, l)
			}
		}
		if sum, scale := KraftSum(lens); sum != 1<<scale {
			t.Errorf("maxBits %d: Kraft sum %d != 2^%d", maxBits, sum, scale)
		}
	}
}

func TestBuildLengthsNegativeFreq(t *testing.T) {
	if _, err := BuildLengths([]int{1, -1}, 15); err == nil {
		t.Fatal("expected error for negative frequency")
	}
}

func TestBuildLengthsTooManySymbols(t *testing.T) {
	freq := make([]int, 10)
	for i := range freq {
		freq[i] = 1
	}
	if _, err := BuildLengths(freq, 3); err == nil {
		t.Fatal("expected error: 10 symbols cannot fit in 3 bits")
	}
}

func TestCanonicalCodesPrefixFree(t *testing.T) {
	lens := []uint8{3, 3, 3, 3, 3, 2, 4, 4}
	codes, err := CanonicalCodes(lens)
	if err != nil {
		t.Fatal(err)
	}
	// Every pair must be prefix-free.
	for i := range lens {
		for j := range lens {
			if i == j || lens[i] == 0 || lens[j] == 0 || lens[i] > lens[j] {
				continue
			}
			if codes[j]>>(lens[j]-lens[i]) == codes[i] {
				t.Errorf("code %d (%0*b) is a prefix of code %d (%0*b)",
					i, lens[i], codes[i], j, lens[j], codes[j])
			}
		}
	}
}

func TestKraftOptimality(t *testing.T) {
	// package-merge must not beat the entropy bound and must be within one
	// bit per symbol of it on a simple distribution.
	freq := []int{45, 13, 12, 16, 9, 5}
	lens, err := BuildLengths(freq, 15)
	if err != nil {
		t.Fatal(err)
	}
	// Known optimal Huffman lengths for this classic CLRS example.
	want := []uint8{1, 3, 3, 3, 4, 4}
	var gotCost, wantCost int
	for i := range freq {
		gotCost += freq[i] * int(lens[i])
		wantCost += freq[i] * int(want[i])
	}
	if gotCost != wantCost {
		t.Errorf("total cost %d != optimal %d (lens %v)", gotCost, wantCost, lens)
	}
}

func roundTrip(t *testing.T, data []byte, maxBits int) {
	t.Helper()
	freq := make([]int, 256)
	for _, b := range data {
		freq[b]++
	}
	lens, err := BuildLengths(freq, maxBits)
	if err != nil {
		t.Fatal(err)
	}
	codes, err := CanonicalCodes(lens)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := bitio.NewMSBWriter(&buf)
	for _, b := range data {
		w.WriteBits(uint64(codes[b]), uint(lens[b]))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(lens)
	if err != nil {
		t.Fatal(err)
	}
	r := bitio.NewMSBReader(&buf)
	for i, want := range data {
		got, err := dec.walk(r)
		if err != nil {
			t.Fatalf("decode at %d: %v", i, err)
		}
		if byte(got) != want {
			t.Fatalf("symbol %d: got %d want %d", i, got, want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	roundTrip(t, []byte("this is a test of the emergency huffman broadcasting system"), 15)
}

func TestEncodeDecodeRoundTripSkewed(t *testing.T) {
	data := bytes.Repeat([]byte{'a'}, 1000)
	data = append(data, bytes.Repeat([]byte{'b'}, 10)...)
	data = append(data, 'c')
	roundTrip(t, data, 15)
	roundTrip(t, data, 4)
}

func TestQuickRoundTripRandomDistributions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2000) + 1
		alpha := rng.Intn(60) + 2
		data := make([]byte, n)
		for i := range data {
			// Zipf-ish skew.
			v := rng.Intn(alpha)
			if rng.Intn(3) > 0 {
				v = rng.Intn(1 + alpha/4)
			}
			data[i] = byte(v)
		}
		freq := make([]int, 256)
		for _, b := range data {
			freq[b]++
		}
		lens, err := BuildLengths(freq, 15)
		if err != nil {
			return false
		}
		codes, err := CanonicalCodes(lens)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		w := bitio.NewMSBWriter(&buf)
		for _, b := range data {
			w.WriteBits(uint64(codes[b]), uint(lens[b]))
		}
		if w.Flush() != nil {
			return false
		}
		dec, err := NewDecoder(lens)
		if err != nil {
			return false
		}
		r := bitio.NewMSBReader(&buf)
		for _, want := range data {
			got, err := dec.walk(r)
			if err != nil || byte(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNewDecoderRejectsOversubscribed(t *testing.T) {
	// Three codes of length 1 oversubscribe the code space.
	if _, err := NewDecoder([]uint8{1, 1, 1}); err == nil {
		t.Fatal("expected oversubscribed lengths to be rejected")
	}
}

func TestNewDecoderRejectsIncomplete(t *testing.T) {
	// Two symbols with lengths {1,2} leave code space unused.
	if _, err := NewDecoder([]uint8{1, 2}); err == nil {
		t.Fatal("expected incomplete lengths to be rejected")
	}
}

func TestNewDecoderAcceptsDegenerateSingle(t *testing.T) {
	d, err := NewDecoder([]uint8{0, 1, 0})
	if err != nil {
		t.Fatalf("single-symbol code must be accepted: %v", err)
	}
	var buf bytes.Buffer
	w := bitio.NewMSBWriter(&buf)
	w.WriteBits(0, 1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := d.walk(bitio.NewMSBReader(&buf))
	if err != nil || got != 1 {
		t.Fatalf("got %d, %v", got, err)
	}
}

func TestReverse(t *testing.T) {
	cases := []struct {
		v    uint32
		n    uint8
		want uint32
	}{
		{0b1, 1, 0b1},
		{0b10, 2, 0b01},
		{0b110, 3, 0b011},
		{0b10110, 5, 0b01101},
	}
	for _, c := range cases {
		if got := Reverse(c.v, c.n); got != c.want {
			t.Errorf("Reverse(%b,%d) = %b, want %b", c.v, c.n, got, c.want)
		}
	}
}

func TestQuickReverseInvolution(t *testing.T) {
	f := func(v uint32, n uint8) bool {
		n = n%32 + 1
		v &= (1 << n) - 1
		return Reverse(Reverse(v, n), n) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildLengths286(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	freq := make([]int, 286)
	for i := range freq {
		freq[i] = rng.Intn(1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildLengths(freq, 15); err != nil {
			b.Fatal(err)
		}
	}
}
