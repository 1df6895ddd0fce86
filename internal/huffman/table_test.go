package huffman

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitio"
)

// walk is the table decoders' witness: it reads src a bit at a time until
// the bits form a code of the canonical code d holds, and returns its
// symbol, with the reader's error if it ran out of bits on the way. It
// refuses a pattern that is no code within the longest length.
func (d *Decoder) walk(src interface {
	ReadBits(uint) uint64
	Err() error
}) (int, error) {
	code := uint32(0)
	for l := 1; l <= d.maxLen; l++ {
		code = code<<1 | uint32(src.ReadBits(1))
		if c := d.count[l]; c > 0 && code >= d.first[l] && code < d.first[l]+uint32(c) {
			return int(d.syms[d.offset[l]+int32(code-d.first[l])]), src.Err()
		}
	}
	return 0, fmt.Errorf("huffman: invalid code %#b", code)
}

// encodeSymbols writes syms through the canonical code, MSB-first as the
// bzip2-style coder does or else LSB-first as DEFLATE does.
func encodeSymbols(tb testing.TB, lengths []uint8, syms []int, msb bool) []byte {
	tb.Helper()
	codes, err := CanonicalCodes(lengths)
	if err != nil {
		tb.Fatalf("CanonicalCodes: %v", err)
	}
	var bw interface {
		WriteBits(uint64, uint)
		Flush() error
		Bytes() []byte
	} = new(bitio.LSBWriter)
	if msb {
		bw = new(bitio.MSBWriter)
	}
	for _, s := range syms {
		code := codes[s]
		if !msb {
			code = Reverse(code, lengths[s])
		}
		bw.WriteBits(uint64(code), uint(lengths[s]))
	}
	if err := bw.Flush(); err != nil {
		tb.Fatalf("flush: %v", err)
	}
	return bw.Bytes()
}

// decoders returns d's table decoder and its walker for one bit order,
// each reading stream from the start.
func decoders(d *Decoder, stream []byte, msb bool) (table, walker func() (int, error)) {
	if msb {
		fast, slow := bitio.NewMSBReader(stream), bitio.NewMSBReader(stream)
		return func() (int, error) { return d.DecodeMSB(fast) }, func() (int, error) { return d.walk(slow) }
	}
	fast, slow := bitio.NewLSBReader(bytes.NewReader(stream)), bitio.NewLSBReader(bytes.NewReader(stream))
	return func() (int, error) { return d.DecodeLSB(fast) }, func() (int, error) { return d.walk(slow) }
}

// randomSymbols draws n symbols with nonzero code length.
func randomSymbols(lengths []uint8, n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var live []int
	for s, l := range lengths {
		if l > 0 {
			live = append(live, s)
		}
	}
	syms := make([]int, n)
	for i := range syms {
		syms[i] = live[rng.Intn(len(live))]
	}
	return syms
}

// tableCodes are length vectors covering every table shape: all-root,
// root+second-level, max-depth 15-bit DEFLATE codes, 20-bit bzip2-style
// codes, and the degenerate single-symbol code.
func tableCodes() map[string][]uint8 {
	// Complete code with lengths 1..14 plus two 15-bit codes:
	// sum 2^-l = 1/2+...+1/2^14 + 2/2^15 = 1.
	deep15 := make([]uint8, 16)
	for i := 0; i < 14; i++ {
		deep15[i] = uint8(i + 1)
	}
	deep15[14], deep15[15] = 15, 15

	// Same construction pushed to 20 bits for the bzip2 orientation.
	deep20 := make([]uint8, 21)
	for i := 0; i < 19; i++ {
		deep20[i] = uint8(i + 1)
	}
	deep20[19], deep20[20] = 20, 20

	// Flat 8-bit code: exercises pure root decoding.
	flat := make([]uint8, 256)
	for i := range flat {
		flat[i] = 8
	}

	// Mixed code straddling the 9-bit root boundary: 2 codes of 1 and 2
	// bits, the rest 10..12 bits. Kraft: 1/2 + 1/4 = 3/4; remaining 1/4 =
	// 256/2^10 with e.g. 128x10-bit... keep it simple: use BuildLengths on
	// a skewed frequency vector instead, which produces realistic shapes.
	return map[string][]uint8{
		"deep15": deep15,
		"deep20": deep20,
		"flat8":  flat,
		"single": {0, 1}, // degenerate: symbol 1, length 1
	}
}

// TestTableMatchesWalkerLSB holds DecodeLSB equal to the bit-at-a-time
// walker over random symbol streams for every table shape.
func TestTableMatchesWalkerLSB(t *testing.T) { checkTableMatchesWalker(t, false, "deep15", 1) }

// TestTableMatchesWalkerMSB is the MSB-orientation twin, covering the
// 20-bit codes the bzip2-style coder can emit.
func TestTableMatchesWalkerMSB(t *testing.T) { checkTableMatchesWalker(t, true, "deep20", 2) }

// checkTableMatchesWalker decodes random symbols of every table shape in
// one bit order through the table and the walker, and requires the code
// named deep to have built a second-level table.
func checkTableMatchesWalker(t *testing.T, msb bool, deep string, seed int64) {
	for name, lengths := range tableCodes() {
		d, err := NewDecoder(lengths)
		if err != nil {
			t.Fatalf("%s: NewDecoder: %v", name, err)
		}
		syms := randomSymbols(lengths, 4096, seed)
		table, walker := decoders(d, encodeSymbols(t, lengths, syms, msb), msb)
		for i, want := range syms {
			gf, err := table()
			if err != nil {
				t.Fatalf("%s sym %d: table: %v", name, i, err)
			}
			gs, err := walker()
			if err != nil {
				t.Fatalf("%s sym %d: walker: %v", name, i, err)
			}
			if gf != want || gs != want {
				t.Fatalf("%s sym %d: table=%d walker=%d want=%d", name, i, gf, gs, want)
			}
		}
		lt := d.lsbTable()
		if msb {
			lt = d.msbTable()
		}
		if name == deep && len(lt.slots) == 1<<lt.rootBits {
			t.Fatalf("%s built no second-level table", deep)
		}
	}
}

// TestTableBuiltCodes runs the differential over codes BuildLengths
// produces from skewed frequencies — realistic DEFLATE-shaped trees.
func TestTableBuiltCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		freq := make([]int, 80+rng.Intn(200))
		// Fibonacci-ish growth drives tree depth toward the limit.
		a, b := 1, 1
		for i := range freq {
			if rng.Intn(3) == 0 {
				freq[i] = 0
				continue
			}
			freq[i] = a
			a, b = b, a+b
			if a > 1<<28 {
				a, b = 1, 1
			}
		}
		lengths, err := BuildLengths(freq, 15)
		if err != nil {
			t.Fatalf("BuildLengths: %v", err)
		}
		nonzero := 0
		for _, l := range lengths {
			if l > 0 {
				nonzero++
			}
		}
		if nonzero == 0 {
			continue
		}
		d, err := NewDecoder(lengths)
		if err != nil {
			t.Fatalf("NewDecoder: %v", err)
		}
		syms := randomSymbols(lengths, 2048, int64(trial))
		enc := encodeSymbols(t, lengths, syms, false)
		fast := bitio.NewLSBReader(bytes.NewReader(enc))
		for i, want := range syms {
			got, err := d.DecodeLSB(fast)
			if err != nil {
				t.Fatalf("trial %d sym %d: %v", trial, i, err)
			}
			if got != want {
				t.Fatalf("trial %d sym %d: got %d want %d", trial, i, got, want)
			}
		}
	}
}

// TestTableDegenerateHole: the unassigned pattern of the single-symbol
// code must error, not loop or return garbage.
func TestTableDegenerateHole(t *testing.T) {
	d, err := NewDecoder([]uint8{1, 0})
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	// Stream of all-ones: the degenerate code assigns only "0".
	br := bitio.NewLSBReader(bytes.NewReader([]byte{0xff}))
	if _, err := d.DecodeLSB(br); err == nil {
		t.Fatal("hole pattern decoded without error")
	}
}

// TestTableTruncatedStream: decoding past the end must surface the
// reader's sticky error rather than fabricate symbols forever.
func TestTableTruncatedStream(t *testing.T) {
	lengths := tableCodes()["deep15"]
	d, err := NewDecoder(lengths)
	if err != nil {
		t.Fatal(err)
	}
	syms := randomSymbols(lengths, 64, 3)
	enc := encodeSymbols(t, lengths, syms, false)
	br := bitio.NewLSBReader(bytes.NewReader(enc[:len(enc)/2]))
	for i := 0; i < len(syms)+16; i++ {
		if _, err := d.DecodeLSB(br); err != nil {
			return // surfaced in finite time
		}
	}
	t.Fatal("truncated stream never surfaced an error")
}

// BenchmarkDecodeTable decodes a DEFLATE-shaped lit/len code's symbols
// through the LSB-first table.
func BenchmarkDecodeTable(b *testing.B) {
	freq := make([]int, 286)
	rng := rand.New(rand.NewSource(11))
	for i := range freq {
		freq[i] = 1 + rng.Intn(1000)
	}
	lengths, err := BuildLengths(freq, 15)
	if err != nil {
		b.Fatal(err)
	}
	d, err := NewDecoder(lengths)
	if err != nil {
		b.Fatal(err)
	}
	syms := randomSymbols(lengths, 1<<16, 13)
	enc := encodeSymbols(b, lengths, syms, false)
	b.SetBytes(int64(len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := bitio.NewLSBReader(bytes.NewReader(enc))
		for j := 0; j < len(syms); j++ {
			if _, err := d.DecodeLSB(br); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestAppendMSBMatchesLoop holds AppendMSB to a DecodeMSB loop on every
// table shape, and on a 31-bit code too long for its register loop: stop
// symbols met early, late and never, and limits met and not — the same
// symbols, the same error and the same bits left in the reader.
func TestAppendMSBMatchesLoop(t *testing.T) {
	codes := tableCodes()
	deep31 := make([]uint8, 32)
	for i := 0; i < 30; i++ {
		deep31[i] = uint8(i + 1)
	}
	deep31[30], deep31[31] = 31, 31
	codes["deep31"] = deep31
	for name, lengths := range codes {
		d, err := NewDecoder(lengths)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		syms := randomSymbols(lengths, 3000, 41)
		stream := encodeSymbols(t, lengths, syms, true)
		for _, stop := range []int{syms[0], syms[1500], syms[len(syms)-1], -1} {
			for _, limit := range []int{100, 2 * len(syms)} {
				br, wantBr := bitio.NewMSBReader(stream), bitio.NewMSBReader(stream)
				got, err := d.AppendMSB(nil, br, stop, limit)
				want, wantErr := appendMSBLoop(d, nil, wantBr, stop, limit)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
					t.Fatalf("%s, stop %d, limit %d: AppendMSB %d symbols (%v), the loop %d (%v)", name, stop, limit, len(got), err, len(want), wantErr)
				}
				if left, wantLeft := bitsLeft(br), bitsLeft(wantBr); !slices.Equal(left, wantLeft) {
					t.Fatalf("%s, stop %d, limit %d: AppendMSB left %d bits, the loop %d", name, stop, limit, len(left), len(wantLeft))
				}
			}
		}
	}
}
