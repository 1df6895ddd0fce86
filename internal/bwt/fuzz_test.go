package bwt

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bitio"
	"repro/internal/checksum"
	"repro/internal/huffman"
)

// fuzzLimit is the maxSize the hostile-input tests decode under, and
// allocBound what one such decode may allocate in total — the
// malicious-server suite's bound (internal/proxy/malicious_test.go).
const (
	fuzzLimit  = 256 << 10
	allocBound = 16 << 20
)

// craftBlock writes a level-1 stream of one block with the given header
// fields and code lengths, followed by the given symbols (while the code
// has them) and the end-of-stream marker.
func craftBlock(crc uint32, rleLen, ptr int, lens map[int]uint8, syms ...int) []byte {
	out := &sliceWriter{b: []byte{magic0, magic1, magic2, '1'}}
	bw := bitio.NewMSBWriter(out)
	bw.WriteBits(1, 1)
	bw.WriteBits(uint64(crc), 32)
	bw.WriteBits(uint64(rleLen), 32)
	bw.WriteBits(uint64(ptr), 32)
	all := make([]uint8, numSymbols)
	for s, l := range lens {
		all[s] = l
	}
	for _, l := range all {
		bw.WriteBits(uint64(l), 5)
	}
	if codes, err := huffman.CanonicalCodes(all); err == nil {
		for _, s := range syms {
			bw.WriteBits(uint64(codes[s]), uint(all[s]))
		}
	}
	bw.WriteBits(0, 1)
	_ = bw.Flush()
	return out.b
}

// setBits overwrites n bits of a stream, MSB first, from bit offset off
// past the 4-byte magic.
func setBits(stream []byte, off, n int, v uint64) []byte {
	out := bytes.Clone(stream)
	for i := 0; i < n; i++ {
		bit := 32 + off + i
		mask := byte(0x80) >> (bit % 8)
		out[bit/8] &^= mask
		if v>>(n-1-i)&1 == 1 {
			out[bit/8] |= mask
		}
	}
	return out
}

// seedStreams is the seed corpus: what FuzzBWTDecode starts from and what
// TestWorkspaceReuse crosses pairwise.
func seedStreams(tb testing.TB) map[string][]byte {
	compress := func(data []byte, level int) []byte {
		comp, err := Compress(data, level)
		if err != nil {
			tb.Fatal(err)
		}
		return comp
	}
	text := []byte(strings.Repeat("block sorting brings like contexts together. ", 100))
	noise := make([]byte, 20<<10)
	rand.New(rand.NewSource(18)).Read(noise)
	runs := bytes.Repeat(append(bytes.Repeat([]byte{'r'}, 300), 'x', 'y'), 40) // RLE1 count bytes, long RUNA/RUNB runs
	small := compress(text, 9)
	ab := map[int]uint8{symRUNA: 1, symRUNB: 1}
	return map[string][]byte{
		"valid-text-9":     small,
		"valid-noise-1":    compress(noise, 1),
		"valid-runs-5":     compress(runs, 5),
		"valid-multiblock": compress(bytes.Repeat(text, 50), 1), // 225 kB: three level-1 blocks
		"valid-empty":      compress(nil, 9),
		"valid-one-byte":   compress([]byte{'q'}, 9),
		"truncated-half":   small[:len(small)/2],
		"truncated-header": small[:9],
		"bad-magic":        append([]byte("BZh9"), small[4:]...),
		"bad-level":        append([]byte("BZr0"), small[4:]...),
		"bad-crc":          setBits(small, 1, 32, 0xdeadbeef),
		"bad-ptr":          setBits(small, 65, 32, 1<<31-1),
		"ptr-other-row":    setBits(small, 65, 32, 1), // in range, wrong: only the CRC can tell
		"rlelen-over-cap":  setBits(small, 33, 32, 1<<30),
		"rlelen-short":     setBits(small, 33, 32, 100),
		"rlelen-long":      setBits(small, 33, 32, 100_000),
		"bad-code-length":  setBits(small, 97, 5, 31),
		// A code of RUNA and RUNB alone: the stream never reaches EOB.
		"runaway-runs": craftBlock(0, 10, 0, ab, make([]int, 400)...),
		// Twenty RUNBs declare a two-million-byte zero run in three bytes.
		"run-bomb":       craftBlock(0, 125_000, 0, map[int]uint8{symRUNB: 1, symEOB: 1}, append(bytes2ints(bytes.Repeat([]byte{symRUNB}, 20)), symEOB)...),
		"empty-block":    craftBlock(checksum.CRC32(nil), 0, 0, map[int]uint8{symEOB: 1}, symEOB),
		"zero-len-lying": craftBlock(checksum.CRC32(nil), 0, 0, map[int]uint8{symRUNB: 1, symEOB: 1}, symRUNB, symRUNB, symRUNB, symEOB),
		// "aaaa" with its count byte missing: RLE1 must refuse the block.
		"rle1-missing-count": craftBlock(checksum.CRC32([]byte("aaaa")), 4, 0, map[int]uint8{symRUNA: 2, symRUNB: 2, 'a' + 1: 2, symEOB: 2}, 'a'+1, symRUNA, symRUNA, symEOB),
		// Row 1 of "aba" lies on a cycle of length 2 (row 0 is one of its
		// own): the one walk reads "aba", the CRC says so, and only the
		// meeting rule can refuse it.
		"not-a-transform": columnStream(tb, []byte("aba"), 1),
	}
}

// columnStream writes a level-1 stream of one block whose last column is
// col and row pointer ptr, with the CRC of what the one forward walk and
// RLE1 make of them: a stream every check but the meeting rule passes.
func columnStream(tb testing.TB, col []byte, ptr int) []byte {
	raw, err := rle1Decode(referenceInverse(col, ptr))
	if err != nil {
		tb.Fatal(err)
	}
	e := new(encoder)
	e.mtfRLE2(col)
	lens, err := huffman.BuildLengths(e.freq[:], maxHuffBits)
	if err != nil {
		tb.Fatal(err)
	}
	code := map[int]uint8{}
	for s, l := range lens {
		if l > 0 {
			code[s] = l
		}
	}
	syms := make([]int, len(e.syms))
	for i, s := range e.syms {
		syms[i] = int(s)
	}
	return craftBlock(checksum.CRC32(raw), len(col), ptr, code, syms...)
}

func bytes2ints(b []byte) []int {
	out := make([]int, len(b))
	for i, v := range b {
		out[i] = int(v)
	}
	return out
}

// referenceDecompress is the decoder as it stood before the workspace —
// fresh arrays per stage, the unfused stages of reference_test.go, one
// symbol and one forward step at a time — with the meeting rule as a
// check of its own, and the production decoder is held to it byte for
// byte, refusals included.
func referenceDecompress(data []byte, maxSize int) ([]byte, error) {
	if len(data) < 4 || data[0] != magic0 || data[1] != magic1 || data[2] != magic2 {
		return nil, ErrCorrupt
	}
	level := int(data[3] - '0')
	if level < 1 || level > 9 {
		return nil, ErrCorrupt
	}
	br := bitio.NewMSBReader(bytes.NewReader(data[4:]))
	blockLimit := level * blockSizeUnit
	out := []byte{}
	for {
		marker := br.ReadBits(1)
		if br.Err() != nil {
			return nil, ErrCorrupt
		}
		if marker == 0 {
			return out, nil
		}
		crc := uint32(br.ReadBits(32))
		rleLen := int(br.ReadBits(32))
		ptr := int(br.ReadBits(32))
		if br.Err() != nil || rleLen > blockLimit+blockLimit/4+64 || (rleLen > 0 && ptr >= rleLen) {
			return nil, ErrCorrupt
		}
		lens := make([]uint8, numSymbols)
		for i := range lens {
			v := br.ReadBits(5)
			if v > maxHuffBits {
				return nil, ErrCorrupt
			}
			lens[i] = uint8(v)
		}
		dec, err := huffman.NewDecoder(lens)
		if br.Err() != nil || err != nil {
			return nil, ErrCorrupt
		}
		var syms []uint16
		for {
			s, err := dec.DecodeMSB(br)
			if err != nil {
				return nil, ErrCorrupt
			}
			syms = append(syms, uint16(s))
			if s == symEOB {
				break
			}
			if len(syms) > 2*rleLen+64 {
				return nil, ErrCorrupt
			}
		}
		// The old decoder read a declared length of 0 as "no bound" here;
		// that hole is closed, so the reference closes it the same way.
		mtf, err := rle2Decode(syms, max(rleLen, 1))
		if err != nil || len(mtf) != rleLen {
			return nil, ErrCorrupt
		}
		col := mtfDecode(mtf)
		if rleLen > 0 && !meetingRule(col, ptr) {
			return nil, ErrCorrupt
		}
		raw, err := rle1Decode(referenceInverse(col, ptr))
		if err != nil || checksum.CRC32(raw) != crc {
			return nil, ErrCorrupt
		}
		if maxSize > 0 && len(out)+len(raw) > maxSize {
			return nil, ErrCorrupt
		}
		out = append(out, raw...)
	}
}

// checkDecode holds one decode of x on workspace d to the reference.
func checkDecode(d *decoder, x []byte, what string) error {
	want, wantErr := referenceDecompress(x, fuzzLimit)
	got, err := d.decompressAppend(nil, x, fuzzLimit)
	if (err != nil) != (wantErr != nil) {
		return fmt.Errorf("%s: err %v, reference err %v", what, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		return fmt.Errorf("%s: %d bytes differ from the reference's %d", what, len(got), len(want))
	}
	// The same decode onto the tail of a buffer that has room, as the
	// client does it: a refusal returns nil and leaves what was there.
	dst := append(make([]byte, 0, len(decodedSoFar)+len(want)+16<<10), decodedSoFar...)
	got, err = d.decompressAppend(dst, x, fuzzLimit)
	if !bytes.Equal(dst, decodedSoFar) || (err != nil) != (wantErr != nil) || (err != nil && got != nil) {
		return fmt.Errorf("%s, onto a prefix: err %v returning %d bytes, prefix now %q", what, err, len(got), dst)
	}
	if err == nil && !(bytes.HasPrefix(got, decodedSoFar) && bytes.Equal(got[len(decodedSoFar):], want)) {
		return fmt.Errorf("%s, onto a prefix: %d bytes differ from prefix + reference", what, len(got))
	}
	return nil
}

var decodedSoFar = []byte("the blocks before this one")

// checkWorkspaces is the differential oracle: x must decode identically
// on a fresh workspace and on one just used for y.
func checkWorkspaces(x, y []byte) error {
	if err := checkDecode(new(decoder), x, "fresh workspace"); err != nil {
		return err
	}
	used := new(decoder)
	_, _ = used.decompressAppend(nil, y, fuzzLimit)
	return checkDecode(used, x, "used workspace")
}

// TestWorkspaceReuse crosses every seed stream with every other.
func TestWorkspaceReuse(t *testing.T) {
	seeds := seedStreams(t)
	for xn, x := range seeds {
		for yn, y := range seeds {
			if err := checkWorkspaces(x, y); err != nil {
				t.Errorf("%s after %s: %v", xn, yn, err)
			}
		}
	}
}

// TestSeedStreamsMeanWhatTheySay pins the verdict on each seed, so a seed
// that stops exercising its case is noticed.
func TestSeedStreamsMeanWhatTheySay(t *testing.T) {
	for name, x := range seedStreams(t) {
		_, err := Decompress(x, fuzzLimit)
		if valid := strings.HasPrefix(name, "valid-") || name == "empty-block"; valid != (err == nil) {
			t.Errorf("%s: err = %v", name, err)
		}
		if name == "not-a-transform" && !errors.Is(err, errNotATransform) {
			t.Errorf("%s: refused for another reason: %v", name, err)
		}
	}
}

// FuzzBWTDecode feeds the decoder arbitrary streams x, each after an
// unrelated stream y has been through the same workspace: no panic, the
// reference's bytes or a refusal where it refuses, never more than
// allocBound allocated under a fuzzLimit budget; and x taken as raw data
// must survive Compress/Decompress at the level its first byte picks.
func FuzzBWTDecode(f *testing.F) {
	seeds := seedStreams(f)
	for _, x := range seeds {
		f.Add(x, seeds["run-bomb"])
		f.Add(x, seeds["valid-noise-1"])
	}
	f.Fuzz(func(t *testing.T, x, y []byte) {
		if err := checkWorkspaces(x, y); err != nil {
			t.Fatal(err)
		}

		var m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m1)
		_, _ = DecompressAppend(nil, x, fuzzLimit)
		runtime.ReadMemStats(&m2)
		if got := m2.TotalAlloc - m1.TotalAlloc; got > allocBound {
			t.Fatalf("decoding %d bytes under a %d-byte limit allocated %d", len(x), fuzzLimit, got)
		}

		level := 1
		if len(x) > 0 {
			level += int(x[0]) % 9
		}
		comp, err := Compress(x, level)
		if err != nil {
			t.Fatalf("Compress -%d: %v", level, err)
		}
		back, err := Decompress(comp, len(x))
		if err != nil || !bytes.Equal(back, x) {
			t.Fatalf("round trip -%d of %d bytes: err %v", level, len(x), err)
		}
	})
}
