package flate

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/huffman"
)

// DEFLATE symbol-table constants (RFC 1951).
const (
	endBlockMarker = 256
	maxNumLit      = 286
	maxNumDist     = 30
	numCLSymbols   = 19

	maxCodeBits   = 15
	maxCLCodeBits = 7
)

// lengthCode maps a match length (3..258) to its length code, extra-bit
// count and base.
type lengthEntry struct {
	code  uint16
	extra uint8
	base  uint16
}

// lengthTable is indexed by code-257 and holds (extra, base) per RFC 1951.
var lengthTable = [29]struct {
	extra uint8
	base  uint16
}{
	{0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7}, {0, 8}, {0, 9}, {0, 10},
	{1, 11}, {1, 13}, {1, 15}, {1, 17}, {2, 19}, {2, 23}, {2, 27}, {2, 31},
	{3, 35}, {3, 43}, {3, 51}, {3, 59}, {4, 67}, {4, 83}, {4, 99}, {4, 115},
	{5, 131}, {5, 163}, {5, 195}, {5, 227}, {0, 258},
}

// distTable is indexed by distance code and holds (extra, base).
var distTable = [30]struct {
	extra uint8
	base  uint16
}{
	{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 5}, {1, 7}, {2, 9}, {2, 13},
	{3, 17}, {3, 25}, {4, 33}, {4, 49}, {5, 65}, {5, 97}, {6, 129}, {6, 193},
	{7, 257}, {7, 385}, {8, 513}, {8, 769}, {9, 1025}, {9, 1537},
	{10, 2049}, {10, 3073}, {11, 4097}, {11, 6145}, {12, 8193}, {12, 12289},
	{13, 16385}, {13, 24577},
}

// The inflater's code tables: one uint32 slot per pattern of the stream's
// next bits, laid out by huffman.Decoder.LayoutLSB, whose low bits are the
// code's length. The kind above them says what a slot decodes to, and with
// it the extra-bit count and the base, so one load gives a symbol and what
// its extra bits add to. A zero slot is a pattern no code produces.
const (
	litRootBits  = 10
	distRootBits = 8

	slotLen  = 1<<4 - 1 // the code's length; a pointer's table's index width
	slotKind = 7 << 4

	kindLiteral = 1 << 4 // the byte at bits 16-23
	kindLength  = 2 << 4 // extra bits at 8-15, base at 16-31
	kindDist    = 3 << 4 // extra bits at 8-15, base at 16-31
	kindEnd     = 4 << 4
	kindInvalid = 5 << 4 // a symbol the code may hold and no block may use, at 16-31
	kindSub     = 6 << 4 // a pointer: its second-level table's offset at 8-31
)

// litSlots and distSlots are what a code's slots hold for each symbol of
// the two alphabets, less the code's length.
var litSlots, distSlots = symbolSlots()

func symbolSlots() (lit [maxNumLit + 2]uint32, dist [maxNumDist + 2]uint32) {
	for s := range lit {
		switch {
		case s < endBlockMarker:
			lit[s] = kindLiteral | uint32(s)<<16
		case s == endBlockMarker:
			lit[s] = kindEnd
		case s < maxNumLit:
			e := lengthTable[s-endBlockMarker-1]
			lit[s] = kindLength | uint32(e.extra)<<8 | uint32(e.base)<<16
		default:
			lit[s] = kindInvalid | uint32(s)<<16
		}
	}
	for s := range dist {
		if s < maxNumDist {
			e := distTable[s]
			dist[s] = kindDist | uint32(e.extra)<<8 | uint32(e.base)<<16
		} else {
			dist[s] = kindInvalid | uint32(s)<<16
		}
	}
	return lit, dist
}

// codeTable is one code laid out for the inflater.
type codeTable struct {
	slots    []uint32
	rootBits uint
	maxLen   uint // the careful loop's peek: the longest code
}

// build lays d's code out in t's storage, each symbol's slots holding
// vals[sym].
func (t *codeTable) build(d *huffman.Decoder, rootBits uint, vals []uint32) {
	t.slots = d.LayoutLSB(t.slots, rootBits, vals, kindSub)
	t.rootBits, t.maxLen = rootBits, uint(d.MaxLen())
}

// decode reads one code of t with the reader's own peek and consume, the
// careful loop's probe: it refuses what huffman.Decoder.DecodeLSB refuses,
// in the same words.
func (t *codeTable) decode(br *bitio.LSBReader) (uint32, error) {
	v := br.PeekBits(t.maxLen)
	e := t.slots[v&(1<<t.rootBits-1)]
	if e&slotKind == kindSub {
		e = t.slots[e>>8+uint32(v>>t.rootBits)&(1<<(e&slotLen)-1)]
	}
	if e&slotLen == 0 {
		return 0, fmt.Errorf("huffman: invalid code %#b", v)
	}
	br.Consume(uint(e & slotLen))
	if err := br.Err(); err != nil {
		return 0, err
	}
	return e, nil
}

// clOrder is the permuted order in which code-length-code lengths appear in
// a dynamic block header.
var clOrder = [numCLSymbols]byte{
	16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
}

// lengthCodes is a 3..258 -> entry lookup built once.
var lengthCodes = buildLengthCodes()

func buildLengthCodes() [259]lengthEntry {
	var t [259]lengthEntry
	for code := 0; code < 29; code++ {
		e := lengthTable[code]
		hi := int(e.base) + (1 << e.extra) - 1
		if code == 28 {
			hi = 258
		}
		for l := int(e.base); l <= hi && l <= 258; l++ {
			t[l] = lengthEntry{code: uint16(code + 257), extra: e.extra, base: e.base}
		}
	}
	// Length 258 is its own zero-extra code 285, which the loop above sets
	// last, overriding code 284's range end.
	t[258] = lengthEntry{code: 285, extra: 0, base: 258}
	return t
}

// distCodeTable maps distances to distance codes: index d-1 for d <= 256,
// index 256 + (d-1)>>7 for larger distances (codes 16..29 all have bases
// that are multiples of 128 plus one, so the >>7 bucketing is exact).
var distCodeTable = buildDistCodeTable()

func buildDistCodeTable() [512]uint8 {
	var t [512]uint8
	code := 0
	for d := 1; d <= 256; d++ {
		for code < 29 && int(distTable[code+1].base) <= d {
			code++
		}
		t[d-1] = uint8(code)
	}
	for i := 2; i < 256; i++ { // buckets of 128 bytes for d in 257..32768
		d := i<<7 + 1
		for code < 29 && int(distTable[code+1].base) <= d {
			code++
		}
		t[256+i] = uint8(code)
	}
	return t
}

// distCode returns the distance code for a distance in 1..32768.
func distCode(d int) int {
	if d <= 256 {
		return int(distCodeTable[d-1])
	}
	return int(distCodeTable[256+(d-1)>>7])
}

// fixedLitLengths returns the fixed lit/len code lengths of RFC 1951 §3.2.6.
func fixedLitLengths() []uint8 {
	lens := make([]uint8, 288)
	for i := 0; i <= 143; i++ {
		lens[i] = 8
	}
	for i := 144; i <= 255; i++ {
		lens[i] = 9
	}
	for i := 256; i <= 279; i++ {
		lens[i] = 7
	}
	for i := 280; i <= 287; i++ {
		lens[i] = 8
	}
	return lens
}

// fixedDistLengths returns the fixed distance code lengths (all 5 bits).
func fixedDistLengths() []uint8 {
	lens := make([]uint8, 32)
	for i := range lens {
		lens[i] = 5
	}
	return lens
}

// Packed emit tables: each entry holds the bit-reversed (LSB-first) code in
// the low 16 bits and the code length in bits 16+, so the hot token loop
// writes a symbol with one table load and one WriteBits call instead of a
// per-symbol huffman.Reverse.
const packedLenShift = 16

func packCode(code uint32, length uint8) uint32 {
	return huffman.Reverse(code, length) | uint32(length)<<packedLenShift
}

// packEnc fills enc with packed reversed codes for the canonical code over
// lengths, using codes as canonical-code scratch (len(codes) >= len(lengths)).
func packEnc(enc []uint32, codes []uint32, lengths []uint8) error {
	if err := huffman.CanonicalCodesInto(codes[:len(lengths)], lengths); err != nil {
		return err
	}
	for s, l := range lengths {
		if l == 0 {
			enc[s] = 0
			continue
		}
		enc[s] = packCode(codes[s], l)
	}
	return nil
}

// fixedLitEnc / fixedDistEnc are the packed emit tables for the fixed trees,
// built once and shared (read-only) by every encoder.
var fixedLitEnc, fixedDistEnc = buildFixedEnc()

func buildFixedEnc() (lit [maxNumLit]uint32, dist [maxNumDist]uint32) {
	litLens := fixedLitLengths()
	codes, err := huffman.CanonicalCodes(litLens)
	if err != nil {
		panic(err)
	}
	for s := 0; s < maxNumLit; s++ {
		lit[s] = packCode(codes[s], litLens[s])
	}
	distLens := fixedDistLengths()
	codes, err = huffman.CanonicalCodes(distLens)
	if err != nil {
		panic(err)
	}
	for s := 0; s < maxNumDist; s++ {
		dist[s] = packCode(codes[s], distLens[s])
	}
	return lit, dist
}
