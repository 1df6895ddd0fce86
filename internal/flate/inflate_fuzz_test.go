package flate

// The inflater decodes what it can through a fast loop and hands every
// symbol the fast loop cannot finish to the careful one. FuzzInflateFastPath
// holds the pair to compress/flate on arbitrary raw DEFLATE bytes: the same
// output and the same verdict whatever room dst has and wherever the limit
// falls, and for a refusal the same words every way it is decoded.

import (
	"bytes"
	stdflate "compress/flate"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/bitio"
	"repro/internal/huffman"
)

// seedWriter writes raw DEFLATE a symbol at a time.
type seedWriter struct {
	out               bytes.Buffer
	bw                *bitio.LSBWriter
	litLens, distLens []uint8
	lit, dist         []uint32 // canonical codes
}

func newSeedWriter() *seedWriter {
	w := new(seedWriter)
	w.bw = bitio.NewLSBWriter(&w.out)
	return w
}

// code writes a canonical code first bit first.
func (w *seedWriter) code(c uint32, n uint8) {
	w.bw.WriteBits(uint64(huffman.Reverse(c, n)), uint(n))
}

func (w *seedWriter) use(litLens, distLens []uint8) {
	w.litLens, w.distLens = litLens, distLens
	var err error
	if w.lit, err = huffman.CanonicalCodes(litLens); err != nil {
		panic(err)
	}
	if w.dist, err = huffman.CanonicalCodes(distLens); err != nil {
		panic(err)
	}
}

// fixed opens a final block with the fixed codes.
func (w *seedWriter) fixed() {
	w.bw.WriteBits(1, 1)
	w.bw.WriteBits(1, 2)
	w.use(fixedLitLengths(), fixedDistLengths())
}

// dynamic opens a final block with the given codes, every length sent
// through a code-length code of 4 bits for lengths 0-12 and 5 bits for the
// rest.
func (w *seedWriter) dynamic(litLens, distLens []uint8) {
	w.bw.WriteBits(1, 1)
	w.bw.WriteBits(2, 2)
	w.bw.WriteBits(uint64(len(litLens)-257), 5)
	w.bw.WriteBits(uint64(len(distLens)-1), 5)
	w.bw.WriteBits(numCLSymbols-4, 4)
	var clLens [numCLSymbols]uint8
	for s := range clLens {
		clLens[s] = 4
		if s > 12 {
			clLens[s] = 5
		}
	}
	for _, s := range clOrder {
		w.bw.WriteBits(uint64(clLens[s]), 3)
	}
	cl, err := huffman.CanonicalCodes(clLens[:])
	if err != nil {
		panic(err)
	}
	for _, l := range append(bytes.Clone(litLens), distLens...) {
		w.code(cl[l], clLens[l])
	}
	w.use(litLens, distLens)
}

func (w *seedWriter) sym(s int) { w.code(w.lit[s], w.litLens[s]) }

func (w *seedWriter) literals(b []byte) {
	for _, c := range b {
		w.sym(int(c))
	}
}

// match writes a length and a distance, each with its extra bits.
func (w *seedWriter) match(length, dist int) {
	le := lengthCodes[length]
	w.sym(int(le.code))
	w.bw.WriteBits(uint64(length-int(le.base)), uint(le.extra))
	dc := distCode(dist)
	w.code(w.dist[dc], w.distLens[dc])
	w.bw.WriteBits(uint64(dist-int(distTable[dc].base)), uint(distTable[dc].extra))
}

func (w *seedWriter) bytes() []byte {
	if err := w.bw.Flush(); err != nil {
		panic(err)
	}
	return w.out.Bytes()
}

// filler is what follows a refusal, so the fast loop has the 8 bytes of
// input it needs in reach of it.
var filler = bytes.Repeat([]byte{0x5a}, 16)

// fastPathSeed is a raw stream, the limit it is decoded under and what
// Inflate makes of it: "" for a clean decode, or its error.
type fastPathSeed struct {
	raw     []byte
	maxSize int
	want    string
}

// fastPathSeeds put each refusal, and each cut the limit makes, where the
// fast loop is running: behind enough output and before enough input.
func fastPathSeeds() map[string]fastPathSeed {
	text := []byte(strings.Repeat("the fast loop stops before it refuses; ", 8))
	seeds := map[string]fastPathSeed{}

	// A code of one 1-bit literal: the other bit pattern is no code.
	w := newSeedWriter()
	onlyA := make([]uint8, 257)
	onlyA['a'] = 1
	w.dynamic(onlyA, []uint8{1})
	w.literals(bytes.Repeat([]byte{'a'}, 100))
	w.bw.WriteBits(1, 1)
	seeds["invalid-code-mid-block"] = fastPathSeed{append(w.bytes(), filler...), 4096, "flate: corrupt stream: lit/len: huffman: invalid code 0b1"}

	w = newSeedWriter()
	w.fixed()
	w.literals(text[:40])
	w.sym(257)
	w.code(w.dist[30], 5)
	seeds["dist-code-30"] = fastPathSeed{append(w.bytes(), filler...), 4096, "flate: corrupt stream: dist code 30"}

	w = newSeedWriter()
	w.fixed()
	w.literals(text[:40])
	w.sym(286)
	seeds["lit-len-symbol-286"] = fastPathSeed{append(w.bytes(), filler...), 4096, "flate: corrupt stream: lit/len symbol 286"}

	w = newSeedWriter()
	w.fixed()
	w.literals(text[:20])
	w.match(3, 21)
	seeds["distance-one-past-output"] = fastPathSeed{append(w.bytes(), filler...), 4096, "flate: corrupt stream: distance 21 beyond output 20"}

	// 300 bytes, a 258-byte match that ends at the limit, then 20 more.
	w = newSeedWriter()
	w.fixed()
	w.literals(text[:300])
	w.match(258, 300)
	w.literals(text[:20])
	w.sym(endBlockMarker)
	atLimit := w.bytes()
	seeds["match-ending-at-limit"] = fastPathSeed{atLimit, 558, "flate: corrupt stream: output exceeds limit 558"}
	seeds["match-then-the-rest"] = fastPathSeed{atLimit, 578, ""}

	w = newSeedWriter()
	w.fixed()
	w.literals(text[:7])
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7} {
		w.match(258, d)
		w.match(3+d, d)
	}
	w.literals(text[:20])
	w.sym(endBlockMarker)
	seeds["overlap-under-8"] = fastPathSeed{w.bytes(), 4096, ""}

	// A stored block of 50 bytes, then a fixed block cut 8 bytes in.
	w = newSeedWriter()
	w.bw.WriteBits(0, 3)
	w.bw.Align()
	w.bw.WriteBits(50, 16)
	w.bw.WriteBits(^uint64(50)&0xffff, 16)
	w.bw.WriteBytes(text[:50])
	w.fixed()
	w.literals(text[:40])
	w.sym(endBlockMarker)
	cut := w.bytes()
	seeds["ends-8-bytes-into-block"] = fastPathSeed{cut[:5+50+8], 4096, "flate: corrupt stream: lit/len: unexpected EOF"}
	return seeds
}

// TestFastPathSeeds pins what Inflate makes of each seed, so that a seed
// that stops exercising its case, or a refusal that changes its words, is
// noticed, and runs the oracle.
func TestFastPathSeeds(t *testing.T) {
	for name, s := range fastPathSeeds() {
		_, err := Inflate(nil, bytesReader(s.raw), s.maxSize)
		if got := errText(err); got != s.want {
			t.Errorf("%s: Inflate says %q, meant %q", name, got, s.want)
		}
		if err := checkFastPath(s.raw, s.maxSize); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestRunStopsAtTheLimit runs the inflater, with ample room, to each limit
// in turn over a stream of literals and matches, then on to its end: each
// run must stop at its limit exactly, wherever the fast loop left off, and
// the output come out whole.
func TestRunStopsAtTheLimit(t *testing.T) {
	var text bytes.Buffer
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&text, "line %d of the table: %x, %d\n", i, i*7919, i*i)
	}
	data := text.Bytes()
	comp, err := CompressBytes(data, 9)
	if err != nil {
		t.Fatal(err)
	}
	var z inflater
	for limit := 1; limit <= len(data); limit++ {
		z.reset(bytesReader(comp))
		out, done, err := z.run(make([]byte, 0, len(data)+fastRoom), 0, limit)
		if err != nil || done || len(out) != limit {
			t.Fatalf("run to %d: %d bytes, done %v, err %v", limit, len(out), done, err)
		}
		if out, done, err = z.run(out, 0, len(data)+1); err != nil || !done || !bytes.Equal(out, data) {
			t.Fatalf("run on from %d: %d bytes, done %v, err %v", limit, len(out), done, err)
		}
	}
}

// errText is an error's words, "" for none.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkFastPath is the oracle: Inflate onto nil, into exact capacity and
// onto a prefix with ample room, under maxSize, and a Reader over the raw
// stream in 1-, 7- and 300-byte reads. compress/flate says what the stream
// holds and whether it is one: a stream it refuses, one with bytes behind
// its final block and one that outgrows maxSize must be refused, every
// other decoded to its bytes. A refusal's words must not depend on the room
// dst has or on how the Reader's reads fall.
func checkFastPath(raw []byte, maxSize int) error {
	// Past maxSize the bytes do not matter, and with no limit the fuzz
	// target passes only streams of at most 1 KB, which cannot make 4 MiB.
	r := bytes.NewReader(raw)
	want, stdErr := io.ReadAll(io.LimitReader(stdflate.NewReader(r), 4*streamFuzzLimit))
	refuse := stdErr != nil || r.Len() > 0 || maxSize > 0 && len(want) > maxSize
	room := len(want)
	if refuse {
		room = maxSize
	}
	prefix := []byte("xyz")
	var words string
	for i, c := range []struct {
		name string
		dst  []byte
	}{
		{"nil", nil},
		{"exact", make([]byte, 0, room)},
		{"ample", append(make([]byte, 0, len(prefix)+room+4096), prefix...)},
	} {
		expect := append(bytes.Clone(c.dst), want...)
		if refuse {
			expect = nil
		}
		got, err := Inflate(c.dst, bytesReader(raw), maxSize)
		if (err != nil) != refuse {
			return fmt.Errorf("Inflate onto %s dst: err %q; compress/flate: err %v, %d bytes, %d left over", c.name, errText(err), stdErr, len(want), r.Len())
		}
		if i == 0 {
			words = errText(err)
		} else if errText(err) != words {
			return fmt.Errorf("Inflate onto %s dst: err %q, onto nil %q", c.name, errText(err), words)
		}
		if !bytes.Equal(got, expect) {
			return fmt.Errorf("Inflate onto %s dst: %d bytes, compress/flate %d, or different ones", c.name, len(got), len(want))
		}
	}

	// The Reader, on the raw stream with no gzip header before it: where the
	// stream ends at its final block the Reader must hand over its bytes and,
	// with nothing behind them, refuse the missing trailer; where Inflate
	// refuses inside the stream the Reader refuses in its words.
	_, wholeErr := Inflate(nil, bytesReader(raw), streamFuzzLimit)
	trailing := wholeErr != nil && strings.HasSuffix(wholeErr.Error(), "data after the final block")
	if wholeErr != nil && strings.HasSuffix(wholeErr.Error(), fmt.Sprint("output exceeds limit ", streamFuzzLimit)) {
		return nil // the Reader reads on, to errTooLong
	}
	for _, readSize := range []int{1, 7, 300} {
		zr := NewReader(bytes.NewReader(raw))
		zr.headerOK = true
		got, err := readMember(zr, readSize)
		switch {
		case wholeErr == nil || trailing:
			if !bytes.Equal(got, want) {
				return fmt.Errorf("Reader in %d-byte reads: %d bytes, compress/flate %d, or different ones", readSize, len(got), len(want))
			}
			if !trailing && !strings.Contains(errText(err), "trailer") {
				return fmt.Errorf("Reader in %d-byte reads: err %q at the end of the stream, want a missing trailer", readSize, errText(err))
			}
		case errText(err) != errText(wholeErr):
			return fmt.Errorf("Reader in %d-byte reads: err %q; Inflate: %q", readSize, errText(err), errText(wholeErr))
		}
	}
	return nil
}

// FuzzInflateFastPath holds arbitrary raw DEFLATE bytes, under an
// arbitrary limit, to checkFastPath.
func FuzzInflateFastPath(f *testing.F) {
	for _, s := range fastPathSeeds() {
		f.Add(s.raw, uint32(s.maxSize))
	}
	for _, data := range [][]byte{[]byte("hello, hello, hello"), DeepCodeData(4096), bytes.Repeat([]byte("xy"), 3000)} {
		comp, err := CompressBytes(data, 9)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp, uint32(len(data)))
		f.Add(comp, uint32(len(data)-1))
	}
	f.Fuzz(func(t *testing.T, raw []byte, m uint32) {
		maxSize := int(m % (streamFuzzLimit + 1))
		if maxSize == 0 && len(raw) > 1<<10 {
			maxSize = streamFuzzLimit // no limit only where the stream cannot make much
		}
		if err := checkFastPath(raw, maxSize); err != nil {
			t.Fatal(err)
		}
	})
}
