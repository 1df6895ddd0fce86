package huffman

// Two-level lookup-table decoding (the zlib inflate strategy): a root
// table indexed by the next rootBits of the stream resolves every code of
// length <= rootBits in one probe; longer codes hit a root entry that
// points at a second-level table indexed by the remaining bits. The
// bit-at-a-time walker in Decode stays as the verified fallback — the
// tables are an equivalent projection of the same canonical code, and the
// differential tests hold the two paths equal.

import (
	"errors"
	"fmt"
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

// tableEntry is one lookup slot. len == 0 marks a bit pattern no code
// produces (possible only for the degenerate single-symbol code). A root
// entry with bits != 0 is a pointer: sym is the offset of its
// second-level table and bits its index width.
type tableEntry struct {
	sym  int32
	len  uint8
	bits uint8
}

// lookupTable is a decoding table over one bit orientation.
type lookupTable struct {
	rootBits uint
	rootMask uint64
	peek     uint // maxLen: the peek window covering any full code
	root     []tableEntry
	sub      []tableEntry
	long     []longCode // build scratch
}

// longCode is a code too long for the root table, parked until the
// second-level tables are laid out.
type longCode struct {
	sym  int32
	len  uint8
	code uint32
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
	if maxLen := uint(d.maxLen); rootBits > maxLen {
		rootBits = maxLen
	}
	t.rootBits = rootBits
	t.rootMask = 1<<rootBits - 1
	t.peek = uint(d.maxLen)
	// A zero entry marks a pattern no code produces, so storage left by
	// the previous code is cleared; sub regrows zeroed, group by group.
	t.root = slices.Grow(t.root[:0], 1<<rootBits)[:1<<rootBits]
	clear(t.root)
	t.sub = t.sub[:0]

	// Walk symbols in canonical (length, symbol) order, regenerating each
	// code the same way the walker's first/offset arrays imply it.
	long := t.long[:0]
	for l := 1; l <= d.maxLen; l++ {
		c := d.count[l]
		if c == 0 {
			continue
		}
		for i := int32(0); i < c; i++ {
			sym := d.syms[d.offset[l]+i]
			code := d.first[l] + uint32(i)
			if uint(l) <= rootBits {
				t.fillRoot(sym, uint8(l), code, msb)
			} else {
				long = append(long, longCode{sym: sym, len: uint8(l), code: code})
			}
		}
	}

	// Group long codes by their first rootBits transmitted bits (the
	// canonical MSB prefix) and build one second-level table per group,
	// sized for the longest code in the group.
	for i := 0; i < len(long); {
		prefix := long[i].code >> (uint(long[i].len) - rootBits)
		j := i
		maxLen := uint(0)
		for j < len(long) && long[j].code>>(uint(long[j].len)-rootBits) == prefix {
			if l := uint(long[j].len); l > maxLen {
				maxLen = l
			}
			j++
		}
		subBits := maxLen - rootBits
		off := int32(len(t.sub))
		t.sub = append(t.sub, make([]tableEntry, 1<<subBits)...)
		for _, lc := range long[i:j] {
			tailBits := uint(lc.len) - rootBits
			tail := lc.code & (1<<tailBits - 1)
			if msb {
				// MSB: the tail arrives left-aligned within subBits.
				base := tail << (subBits - tailBits)
				for k := uint32(0); k < 1<<(subBits-tailBits); k++ {
					t.sub[off+int32(base+k)] = tableEntry{sym: lc.sym, len: lc.len}
				}
			} else {
				// LSB: the tail arrives bit-reversed in the low bits.
				base := Reverse(tail, uint8(tailBits))
				for k := uint32(0); k < 1<<(subBits-tailBits); k++ {
					t.sub[off+int32(base|k<<tailBits)] = tableEntry{sym: lc.sym, len: lc.len}
				}
			}
		}
		// Point the root slot at the group's table.
		slot := prefix
		if !msb {
			slot = Reverse(prefix, uint8(rootBits))
		}
		t.root[slot] = tableEntry{sym: off, bits: uint8(subBits)}
		i = j
	}
	t.long = long
}

// fillRoot replicates a short code across every root slot sharing its
// leading transmitted bits.
func (t *lookupTable) fillRoot(sym int32, l uint8, code uint32, msb bool) {
	if msb {
		base := code << (t.rootBits - uint(l))
		for k := uint32(0); k < 1<<(t.rootBits-uint(l)); k++ {
			t.root[base+k] = tableEntry{sym: sym, len: l}
		}
		return
	}
	base := Reverse(code, l)
	for k := uint32(0); k < 1<<(t.rootBits-uint(l)); k++ {
		t.root[base|k<<uint(l)] = tableEntry{sym: sym, len: l}
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
	e := t.root[v&t.rootMask]
	if e.bits != 0 {
		e = t.sub[e.sym+int32(v>>t.rootBits&(1<<e.bits-1))]
	}
	if e.len == 0 {
		return 0, fmt.Errorf("huffman: invalid code %#b", v)
	}
	br.Consume(uint(e.len))
	if err := br.Err(); err != nil {
		return 0, err
	}
	return int(e.sym), nil
}

// DecodeMSB decodes one symbol from an MSB-first stream (the bzip2-style
// orientation) using the lookup tables.
func (d *Decoder) DecodeMSB(br *bitio.MSBReader) (int, error) {
	t := d.msbTable()
	v := br.PeekBits(t.peek)
	e := t.root[v>>(t.peek-t.rootBits)]
	if e.bits != 0 {
		shift := t.peek - t.rootBits - uint(e.bits)
		e = t.sub[e.sym+int32(v>>shift&(1<<e.bits-1))]
	}
	if e.len == 0 {
		return 0, fmt.Errorf("huffman: invalid code %#b", v)
	}
	br.Consume(uint(e.len))
	if err := br.Err(); err != nil {
		return 0, err
	}
	return int(e.sym), nil
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
func (d *Decoder) AppendMSB(dst []uint16, br *bitio.MSBReader, stop, limit int) ([]uint16, error) {
	t := d.msbTable()
	root, sub := t.root, t.sub
	peek, rootShift := t.peek, t.peek-t.rootBits
	for {
		v := br.PeekBits(peek)
		e := root[v>>rootShift]
		if e.bits != 0 {
			e = sub[e.sym+int32(v>>(rootShift-uint(e.bits))&(1<<e.bits-1))]
		}
		if e.len == 0 {
			return dst, fmt.Errorf("huffman: invalid code %#b", v)
		}
		br.Consume(uint(e.len))
		if err := br.Err(); err != nil {
			return dst, err
		}
		dst = append(dst, uint16(e.sym))
		if int(e.sym) == stop {
			return dst, nil
		}
		if len(dst) > limit {
			return dst, errRunaway
		}
	}
}
