package bwt

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTransformKnownExample(t *testing.T) {
	last, ptr := Transform([]byte("banana"))
	if string(last) != "nnbaaa" {
		t.Errorf("BWT(banana) last column = %q, want nnbaaa", last)
	}
	if ptr != 3 {
		t.Errorf("BWT(banana) ptr = %d, want 3", ptr)
	}
}

func TestTransformInverse(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		[]byte("a"),
		[]byte("ab"),
		[]byte("aaaa"),
		[]byte("banana"),
		[]byte("abracadabra"),
		bytes.Repeat([]byte("ab"), 500),
		[]byte(strings.Repeat("the burrows wheeler transform groups characters. ", 100)),
	}
	for _, c := range cases {
		last, ptr := Transform(c)
		got := Inverse(last, ptr)
		if !bytes.Equal(got, c) {
			t.Errorf("inverse(transform(%q...)) mismatch (len %d)", truncate(c), len(c))
		}
	}
}

func truncate(b []byte) []byte {
	if len(b) > 20 {
		return b[:20]
	}
	return b
}

func TestQuickTransformInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3000)
		data := make([]byte, n)
		alpha := 1 + rng.Intn(255)
		for i := range data {
			data[i] = byte(rng.Intn(alpha))
		}
		last, ptr := Transform(data)
		return bytes.Equal(Inverse(last, ptr), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransformIsPermutation(t *testing.T) {
	data := []byte("mississippi river delta")
	last, _ := Transform(data)
	a := append([]byte{}, data...)
	b := append([]byte{}, last...)
	countsA, countsB := map[byte]int{}, map[byte]int{}
	for i := range a {
		countsA[a[i]]++
		countsB[b[i]]++
	}
	for k, v := range countsA {
		if countsB[k] != v {
			t.Fatalf("BWT is not a permutation: byte %q count %d vs %d", k, v, countsB[k])
		}
	}
}

func TestMTFRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		{0, 0, 0},
		[]byte("aaaabbbbcccc"),
		[]byte{255, 0, 255, 1, 128},
	}
	for _, c := range cases {
		if got := mtfDecode(referenceMTFEncode(c)); !bytes.Equal(got, c) {
			t.Errorf("mtf round trip failed for %v", c)
		}
	}
}

func TestMTFFrontBias(t *testing.T) {
	// Runs map to zeros after the first occurrence.
	enc := referenceMTFEncode([]byte("aaaa"))
	if enc[1] != 0 || enc[2] != 0 || enc[3] != 0 {
		t.Errorf("run should encode to zeros: %v", enc)
	}
}

// TestQuickMTFInverse undoes the fused pass's symbol stream by the
// reference stages.
func TestQuickMTFInverse(t *testing.T) {
	e := new(encoder)
	f := func(data []byte) bool {
		e.mtfRLE2(data)
		mtf, err := rle2Decode(e.syms, 0)
		return err == nil && bytes.Equal(mtfDecode(mtf), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRLE1RoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("abc"),
		[]byte("aaaa"),
		[]byte("aaaaa"),
		bytes.Repeat([]byte{'x'}, 258),
		bytes.Repeat([]byte{'x'}, 259),
		bytes.Repeat([]byte{'x'}, 260),
		bytes.Repeat([]byte{'x'}, 1000),
		append(bytes.Repeat([]byte{'a'}, 4), bytes.Repeat([]byte{'b'}, 4)...),
	}
	for _, c := range cases {
		enc := rle1Encode(c)
		got, err := rle1Decode(enc)
		if err != nil {
			t.Fatalf("decode(%d bytes): %v", len(c), err)
		}
		if !bytes.Equal(got, c) {
			t.Errorf("rle1 round trip failed for len %d", len(c))
		}
	}
}

func TestQuickRLE1Inverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2000)
		data := make([]byte, n)
		// Few distinct values to generate runs.
		for i := range data {
			data[i] = byte(rng.Intn(3))
		}
		enc := rle1Encode(data)
		got, err := rle1Decode(enc)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRLE1MatchesRetired holds appendRLE1, which looks for runs a word at a
// time, to the byte loop it replaced: runs of every length from 1 to 600
// at every offset in a word, between bytes that differ or pair up, random
// blocks of few values, and the bench files' dataplane blocks — each
// appended after a prefix that must stay as it was.
func TestRLE1MatchesRetired(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var inputs [][]byte
	for run := 1; run <= 600; run++ {
		for off := 0; off < 9; off++ {
			b := append(bytes.Repeat([]byte("xyzz"), off)[:off], bytes.Repeat([]byte{'r'}, run)...)
			inputs = append(inputs, append(b, "qqs"[:1+run%3]...))
		}
	}
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(3000))
		alpha := 1 + rng.Intn(4)
		for j := range b {
			b[j] = byte(rng.Intn(alpha))
		}
		inputs = append(inputs, b)
	}
	for _, f := range benchFiles(t) {
		for off := 0; off < len(f.Data); off += blockBytes {
			inputs = append(inputs, f.Data[off:min(off+blockBytes, len(f.Data))])
		}
	}
	prefix := []byte("kept")
	for i, in := range inputs {
		got := appendRLE1(bytes.Clone(prefix), in)
		if want := append(bytes.Clone(prefix), rle1Encode(in)...); !bytes.Equal(got, want) {
			t.Fatalf("input %d (%d bytes): appendRLE1 differs from the byte loop", i, len(in))
		}
	}
}

func TestRLE2ZeroRuns(t *testing.T) {
	e := new(encoder)
	for run := 0; run <= 200; run++ {
		mtf := make([]byte, run)
		mtf = append(mtf, 5) // terminator value so the run flushes
		e.mtfRLE2(mtfDecode(mtf))
		got, err := rle2Decode(e.syms, 0)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !bytes.Equal(got, mtf) {
			t.Fatalf("run %d: round trip failed", run)
		}
	}
}

func TestRLE2MissingEOB(t *testing.T) {
	if _, err := rle2Decode([]uint16{2, 3}, 0); err == nil {
		t.Fatal("missing EOB accepted")
	}
}

func TestCompressRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	random := make([]byte, 50000)
	rng.Read(random)
	cases := map[string][]byte{
		"empty":  nil,
		"one":    {42},
		"text":   []byte(strings.Repeat("block sorting compression via the burrows-wheeler transform. ", 800)),
		"runs":   bytes.Repeat([]byte{'r'}, 100000),
		"random": random,
	}
	for name, data := range cases {
		for _, level := range []int{1, 9} {
			comp, err := Compress(data, level)
			if err != nil {
				t.Fatalf("%s level %d: %v", name, level, err)
			}
			got, err := Decompress(comp, 0)
			if err != nil {
				t.Fatalf("%s level %d: %v", name, level, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s level %d: round trip mismatch", name, level)
			}
		}
	}
}

func TestMultiBlockRoundTrip(t *testing.T) {
	// Level 1 = 100k blocks; 350k input = 4 blocks.
	data := []byte(strings.Repeat("multi block content with moderate structure 0123456789. ", 6200))
	comp, err := Compress(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-block round trip mismatch")
	}
}

func TestCompressesDeeperThanNothing(t *testing.T) {
	data := []byte(strings.Repeat("the compression rate is generally considerably better than lempel-ziv. ", 1000))
	comp, err := Compress(data, 9)
	if err != nil {
		t.Fatal(err)
	}
	if f := float64(len(data)) / float64(len(comp)); f < 10 {
		t.Errorf("bwt factor on repetitive text %.2f, want > 10", f)
	}
}

func TestDecompressRejectsCorrupt(t *testing.T) {
	data := []byte(strings.Repeat("corruption detection ", 500))
	comp, err := Compress(data, 9)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte{}, comp...)
	bad[len(bad)/2] ^= 0x01
	if _, err := Decompress(bad, 0); err == nil {
		t.Fatal("corrupted stream decoded cleanly")
	}
	if _, err := Decompress(comp[:8], 0); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if _, err := Decompress([]byte("BZh1xxxx"), 0); err == nil {
		t.Fatal("foreign magic accepted")
	}
}

func TestDecompressMaxSizeGuard(t *testing.T) {
	data := bytes.Repeat([]byte{'q'}, 200000)
	comp, err := Compress(data, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(comp, 100); err == nil {
		t.Fatal("bomb guard did not trip")
	}
}

func TestLevelValidation(t *testing.T) {
	for _, bad := range []int{0, 10} {
		if _, err := Compress([]byte("x"), bad); err == nil {
			t.Errorf("level %d accepted", bad)
		}
	}
}

func TestQuickCompressRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20000)
		data := make([]byte, n)
		alpha := 1 + rng.Intn(255)
		for i := range data {
			data[i] = byte(rng.Intn(alpha))
		}
		comp, err := Compress(data, 1)
		if err != nil {
			return false
		}
		got, err := Decompress(comp, 0)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDecompress decodes the first dataplane block of each file the
// benchmark's large workloads serve (BenchmarkCompressBlock, in
// sort_test.go, is its encode side).
func BenchmarkDecompress(b *testing.B) {
	for _, f := range benchFiles(b) {
		b.Run(f.Name, func(b *testing.B) {
			block := f.Data[:blockBytes]
			comp, err := Compress(block, 9)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(block)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decompress(comp, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// naiveCyclicSort is the O(n^2 log n) oracle: sort rotation start indices
// by direct cyclic comparison.
func naiveCyclicSort(s []byte) []int {
	n := len(s)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	less := func(a, b int) bool {
		for k := 0; k < n; k++ {
			ca, cb := s[(a+k)%n], s[(b+k)%n]
			if ca != cb {
				return ca < cb
			}
		}
		return false // equal rotations: stable order is fine
	}
	sort.SliceStable(idx, func(i, j int) bool { return less(idx[i], idx[j]) })
	return idx
}

// TestQuickCyclicSortMatchesNaive holds the sort to the quadratic one, and
// to Manber-Myers, on short blocks.
func TestQuickCyclicSortMatchesNaive(t *testing.T) {
	e := new(encoder)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		s := make([]byte, n)
		alpha := 1 + rng.Intn(5) // small alphabet: many ties and periods
		for i := range s {
			s[i] = byte(rng.Intn(alpha))
		}
		if err := checkTransform(e, s); err != nil {
			t.Logf("%q: %v", s, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTransformPeriodicInputs pins what a proper power u^k transforms to:
// the rotations of u, each k times over, and of the k equal rows that
// decode to the block, the lowest — whatever an earlier block left in the
// workspace. (Manber-Myers named row 3 of "abababab" and row 1 of
// "abcabcabcabc": an accident of its tie order.)
func TestTransformPeriodicInputs(t *testing.T) {
	cases := []struct {
		s, last string
		ptr     int
	}{
		{"abab", "bbaa", 0},
		{"abababab", "bbbbaaaa", 0},
		{"babababa", "bbbbaaaa", 4},
		{"abcabcabcabc", "ccccaaaabbbb", 0},
		{"cabcabcabcab", "ccccaaaabbbb", 8},
		{"aaaaaaaa", "aaaaaaaa", 0},
		{"abaaba", "bbaaaa", 2},
		{"xyxyxyxyxy", "yyyyyxxxxx", 0},
	}
	e := new(encoder)
	for _, c := range cases {
		for _, before := range []string{"q", "mississippi", "zzzzzzzzzzzzzzzzzzzzzzzz"} {
			e.transform(make([]byte, len(before)), []byte(before))
			last := make([]byte, len(c.s))
			ptr := e.transform(last, []byte(c.s))
			if string(last) != c.last || ptr != c.ptr {
				t.Errorf("periodic %q after %q: (%q, %d), want (%q, %d)", c.s, before, last, ptr, c.last, c.ptr)
			}
			if got := Inverse(last, ptr); string(got) != c.s {
				t.Errorf("periodic %q: round trip gave %q", c.s, got)
			}
		}
	}

	// Compress is a pure function of its input across workspace reuse.
	var streams [][]byte
	for round := 0; round < 2; round++ {
		for i, c := range cases {
			comp, err := Compress([]byte(strings.Repeat(c.s, 300)), 1+i%9)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				streams = append(streams, comp)
			} else if !bytes.Equal(comp, streams[i]) {
				t.Errorf("periodic %q: second Compress gave a different stream", c.s)
			}
		}
	}
}

func TestInverseRejectsBadPointer(t *testing.T) {
	last, _ := Transform([]byte("banana"))
	if out := Inverse(last, -1); out != nil {
		t.Error("negative pointer accepted")
	}
	if out := Inverse(last, len(last)); out != nil {
		t.Error("out-of-range pointer accepted")
	}
}
