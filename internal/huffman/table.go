package huffman

// Two-level lookup-table decoding (the zlib inflate strategy): a root
// table indexed by the next rootBits of the stream resolves every code of
// length <= rootBits in one probe; longer codes hit a root slot that
// points at a second-level table indexed by the remaining bits. The tables
// are a projection of the canonical code held in first/offset/count/syms;
// the bit-at-a-time walker over those arrays, kept in the test files, is
// what the differential tests hold them to.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bitio"
)

// Root table index widths. DEFLATE codes are at most 15 bits, so 9 root
// bits resolve the overwhelmingly common short codes in one probe while
// keeping the table 512 entries; the bzip2-style coder allows 20-bit
// codes and gets a 10-bit root.
const (
	lsbRootBits = 9
	msbRootBits = 10
)

// A table is one []uint32: the root slots first, then the second-level
// tables. The low bits of a code's slot are the code's length and the rest
// are the table owner's to define; a pointer slot is ptr | offset<<8 |
// width, where ptr is the owner's mark for it and offset and width say
// where its second-level table starts and how many bits index it. A zero
// slot is a pattern no code produces (possible only for the degenerate
// single-symbol code). The decoder's own tables mark pointers with
// slotPtr and hold sym<<8 | length in a code's slot.
const (
	slotLen = 1<<6 - 1 // a length of up to maxCodeLen bits
	slotPtr = 1 << 7

	// maxSlots bounds a table by what a pointer slot can address. The
	// callers' codes stop at 20 bits over a few hundred symbols, which
	// need tens of thousands.
	maxSlots = 1 << 24
)

// lookupTable is a decoding table over one bit orientation.
type lookupTable struct {
	rootBits uint
	rootMask uint64
	peek     uint // maxLen: the peek window covering any full code
	slots    []uint32
}

// buildTable constructs, in t's storage, the two-level table for the
// decoder's canonical code. msb selects the bzip2 orientation (codes read
// MSB-first); the DEFLATE orientation indexes by the bit-reversed code
// because the stream transmits codes LSB-first.
func (d *Decoder) buildTable(t *lookupTable, msb bool) {
	rootBits := uint(lsbRootBits)
	if msb {
		rootBits = msbRootBits
	}
	rootBits = min(rootBits, uint(d.maxLen))
	t.rootBits = rootBits
	t.rootMask = 1<<rootBits - 1
	t.peek = uint(d.maxLen)
	t.slots = d.layout(t.slots, rootBits, msb, nil, slotPtr)
}

// LayoutLSB lays the decoder's code out in dst's storage as a two-level
// table for an LSB-first stream (DEFLATE's orientation) and returns it:
// 1<<rootBits root slots indexed by the stream's next rootBits bits (which
// may exceed the longest code), then the second-level tables. A code's
// slots hold vals[sym] | length, so vals[sym] must leave the low bits a
// length takes clear; a pointer slot holds ptr | offset<<8 | width.
func (d *Decoder) LayoutLSB(dst []uint32, rootBits uint, vals []uint32, ptr uint32) []uint32 {
	return d.layout(dst, rootBits, false, vals, ptr)
}

// layout is the one table builder. It walks the code in canonical
// (length, symbol) order, regenerating each code the way the walker's
// first/offset arrays imply it. A code no longer than rootBits fills every
// root slot it begins. Longer codes come grouped by their first rootBits
// transmitted bits (the canonical MSB prefix), and the first of a group
// opens the group's second-level table, sized for the longest code in it:
// zlib's count of how many codes of each length the prefix's subtree still
// has room for, so no pass over the group is needed first.
func (d *Decoder) layout(t []uint32, rootBits uint, msb bool, vals []uint32, ptr uint32) []uint32 {
	// A zero slot marks a pattern no code produces, so storage left by the
	// previous code is cleared; second-level tables regrow zeroed.
	t = slices.Grow(t[:0], 1<<rootBits)[:1<<rootBits]
	clear(t)
	left := d.count // codes of each length not yet laid out
	group := ^uint32(0)
	var sub, width uint // the open second-level table and its index width
	for l := 1; l <= d.maxLen; l++ {
		for i := int32(0); i < d.count[l]; i++ {
			sym := d.syms[d.offset[l]+i]
			code := d.first[l] + uint32(i)
			slot := uint32(sym)<<8 | uint32(l)
			if vals != nil {
				slot = vals[sym] | uint32(l)
			}
			if uint(l) <= rootBits {
				fill(t, code, uint(l), rootBits, msb, slot)
				continue
			}
			tail := uint(l) - rootBits
			if prefix := code >> tail; prefix != group {
				group = prefix
				width = tail
				for room := int32(1) << tail; rootBits+width < uint(d.maxLen); width++ {
					if room -= left[rootBits+width]; room <= 0 {
						break
					}
					room <<= 1
				}
				sub = uint(len(t))
				if sub+1<<width > maxSlots {
					panic("huffman: lookup table beyond its addressable size")
				}
				t = slices.Grow(t, 1<<width)[:sub+1<<width]
				clear(t[sub:])
				if !msb {
					prefix = bits.Reverse32(prefix) >> (32 - rootBits)
				}
				t[prefix] = ptr | uint32(sub)<<8 | uint32(width)
			}
			fill(t[sub:], code&(1<<tail-1), tail, width, msb, slot)
			left[l]--
		}
	}
	return t
}

// fill writes slot into every slot of a table indexed by width bits whose
// index begins with the l-bit code: its left-aligned run in the MSB
// orientation, its bit-reversed value and every continuation above it in
// the LSB one.
func fill(t []uint32, code uint32, l, width uint, msb bool, slot uint32) {
	base, step := code<<(width-l), uint32(1)
	if !msb {
		base, step = bits.Reverse32(code)>>(32-l), 1<<l
	}
	for k := uint32(0); k < 1<<(width-l); k++ {
		t[base+k*step] = slot
	}
}

// lsbTable / msbTable build lazily: a decoder pays only for the
// orientation it actually decodes with.
func (d *Decoder) lsbTable() *lookupTable {
	d.lsbOnce.Do(func() { d.buildTable(&d.lsb, false) })
	return &d.lsb
}

func (d *Decoder) msbTable() *lookupTable {
	d.msbOnce.Do(func() { d.buildTable(&d.msb, true) })
	return &d.msb
}

// DecodeLSB decodes one symbol from an LSB-first stream (DEFLATE's
// orientation) using the lookup tables: one peek, at most two probes, one
// consume. Reading past the end of the stream surfaces through the
// reader's sticky error, exactly as the bit-at-a-time path does.
func (d *Decoder) DecodeLSB(br *bitio.LSBReader) (int, error) {
	t := d.lsbTable()
	v := br.PeekBits(t.peek)
	e := t.slots[v&t.rootMask]
	if e&slotPtr != 0 {
		e = t.slots[e>>8+uint32(v>>t.rootBits)&(1<<(e&slotLen)-1)]
	}
	if e&slotLen == 0 {
		return 0, fmt.Errorf("huffman: invalid code %#b", v)
	}
	br.Consume(uint(e & slotLen))
	if err := br.Err(); err != nil {
		return 0, err
	}
	return int(e >> 8), nil
}

// DecodeMSB decodes one symbol from an MSB-first stream (the bzip2-style
// orientation) using the lookup tables.
func (d *Decoder) DecodeMSB(br *bitio.MSBReader) (int, error) {
	t := d.msbTable()
	v := br.PeekBits(t.peek)
	e := t.slots[v>>(t.peek-t.rootBits)]
	if e&slotPtr != 0 {
		shift := t.peek - t.rootBits - uint(e&slotLen)
		e = t.slots[e>>8+uint32(v>>shift)&(1<<(e&slotLen)-1)]
	}
	if e&slotLen == 0 {
		return 0, fmt.Errorf("huffman: invalid code %#b", v)
	}
	br.Consume(uint(e & slotLen))
	if err := br.Err(); err != nil {
		return 0, err
	}
	return int(e >> 8), nil
}

// errRunaway is AppendMSB's refusal of a stream that has not reached its
// stop symbol within the limit.
var errRunaway = errors.New("huffman: no stop symbol within the limit")

// AppendMSB decodes symbols from an MSB-first stream, appending each to dst
// as a uint16, up to and including the first that equals stop. It is a
// DecodeMSB loop — the same symbols, the same bits consumed, the same
// refusals — with the table and its fields looked up once, not per
// symbol. A stream that has not reached stop by the time dst holds more
// than limit symbols is refused. A refusal returns dst as far as it got,
// with the error.
//
// Until the reader is within 8 bytes of its end the loop runs on the
// reader's borrowed state: the accumulator held left-aligned in a
// register, topped up with one 8-byte load to at least 56 bits, which is
// two symbols of a code no longer than fastPeek bits, none of them past
// the end; a code that is longer decodes through the reader throughout.
// The last bytes go through PeekBits and Consume, which zero-pad and
// refuse as DecodeMSB does.
func (d *Decoder) AppendMSB(dst []uint16, br *bitio.MSBReader, stop, limit int) ([]uint16, error) {
	t := d.msbTable()
	slots := t.slots
	peek, rootShift := t.peek, t.peek-t.rootBits
	if acc, n, buf, pos := br.Bits(); peek <= fastPeek && n < 64 && br.Err() == nil {
		acc <<= 64 - n // the stream's next bit on top; the bits below are clear
		for pos+8 <= len(buf) {
			// The loaded word's bits past the whole bytes taken stay below
			// the top n: the stream's own, which the next load ORs again.
			acc |= binary.BigEndian.Uint64(buf[pos:]) >> n
			pos += int(63-n) >> 3
			n |= 56
			for range 2 {
				v := acc >> (64 - peek)
				e := slots[v>>rootShift]
				if e&slotPtr != 0 {
					e = slots[e>>8+uint32(v>>(rootShift-uint(e&slotLen)))&(1<<(e&slotLen)-1)]
				}
				l := uint(e & slotLen)
				if l == 0 {
					br.SetBits(acc>>(64-n), n, pos)
					return dst, fmt.Errorf("huffman: invalid code %#b", v)
				}
				acc, n = acc<<l, n-l
				sym := int(e >> 8)
				dst = append(dst, uint16(sym))
				if sym == stop || len(dst) > limit {
					br.SetBits(acc>>(64-n), n, pos)
					if sym == stop {
						return dst, nil
					}
					return dst, errRunaway
				}
			}
		}
		br.SetBits(acc>>(64-n), n, pos)
	}
	for {
		v := br.PeekBits(peek)
		e := slots[v>>rootShift]
		if e&slotPtr != 0 {
			e = slots[e>>8+uint32(v>>(rootShift-uint(e&slotLen)))&(1<<(e&slotLen)-1)]
		}
		if e&slotLen == 0 {
			return dst, fmt.Errorf("huffman: invalid code %#b", v)
		}
		br.Consume(uint(e & slotLen))
		if err := br.Err(); err != nil {
			return dst, err
		}
		sym := int(e >> 8)
		dst = append(dst, uint16(sym))
		if sym == stop {
			return dst, nil
		}
		if len(dst) > limit {
			return dst, errRunaway
		}
	}
}

// fastPeek is the longest code AppendMSB's register loop takes: two
// symbols of it fit the 56 bits a refill guarantees.
const fastPeek = 28
