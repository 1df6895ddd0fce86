package bwt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// RLE1 is bzip2's pre-sort run-length pass: a run of 4..255 equal bytes is
// emitted as the 4 bytes followed by a count byte (run-4). Its purpose in
// bzip2 is to bound sorter worst cases on long runs; we keep it for the
// same reason and for format fidelity.

// appendRLE1 appends the RLE1 coding of data to dst. Between runs it looks
// for the next two equal neighbours a word at a time and copies the bytes
// before a run of four whole: on most blocks such runs are rare, and pairs
// not much commoner.
func appendRLE1(dst, data []byte) []byte {
	dst = slices.Grow(dst, len(data)+len(data)/64+16)
	lit := 0 // the first byte not yet written
	for i := nextPair(data, 0); i < len(data); i = nextPair(data, i) {
		b := data[i]
		j := i + 2
		for j < len(data) && data[j] == b && j-i < 255+4 {
			j++
		}
		if run := j - i; run >= 4 {
			dst = append(append(dst, data[lit:i]...), b, b, b, b, byte(run-4))
			lit = j
		}
		i = j
	}
	return append(dst, data[lit:]...)
}

// nextPair returns the first position p >= i with data[p] == data[p+1], or
// len(data): the lowest zero byte of a word XORed with the next one shifted
// by a byte, found as nextByte finds one.
func nextPair(data []byte, i int) int {
	for ; i+9 <= len(data); i += 8 {
		x := binary.LittleEndian.Uint64(data[i:]) ^ binary.LittleEndian.Uint64(data[i+1:])
		if z := (x - lows) &^ x & highs; z != 0 {
			return i + bits.TrailingZeros64(z)/8
		}
	}
	for ; i+1 < len(data); i++ {
		if data[i] == data[i+1] {
			return i
		}
	}
	return len(data)
}

// RLE2: the MTF stream's zero runs are recoded in bijective base 2 using
// the RUNA/RUNB symbols, exactly as bzip2 does; nonzero MTF values v map to
// symbol v+1 and EOB terminates the block.
const (
	symRUNA = 0
	symRUNB = 1
	symEOB  = 257
	// numSymbols is RUNA, RUNB, 255 shifted MTF values (1..255 -> 2..256)
	// and EOB.
	numSymbols = 258
)

// mtfRLE2 turns the block's last column into its symbol stream in one
// pass: each byte is move-to-front coded over the full byte alphabet, runs
// of the front byte (MTF zeros) are counted and recoded in RUNA/RUNB when
// they end, and every symbol is tallied as it is written. The stream, EOB
// included, is left in e.syms and its histogram in e.freq.
//
// BWT output mostly repeats the byte before — the list's front — which
// costs a compare. Otherwise the first entries are probed by hand, the rest
// of the list 32 bytes at a time by bytes.IndexByte, and the entries ahead
// of the byte move down by one copy: on a block that does not compress the
// byte sits ~128 deep, where a scalar scan per byte was the dearest thing
// the encoder did. A loop for the shallow moves measured no faster than
// the copy at any depth from 1 to 64.
func (e *encoder) mtfRLE2(last []byte) {
	syms := slices.Grow(e.syms[:0], len(last)+1)[:len(last)+1] // a run never takes more symbols than bytes
	freq := &e.freq
	clear(freq[:])
	var list [256]byte
	for i := range list {
		list[i] = byte(i)
	}
	n, run := 0, 0
	for _, b := range last {
		if list[0] == b {
			run++
			continue
		}
		n, run = putRun(syms, freq, n, run), 0
		var idx int
		switch b {
		case list[1]:
			idx = 1
		case list[2]:
			idx = 2
		case list[3]:
			idx = 3
		default:
			idx = 4 + bytes.IndexByte(list[4:], b)
		}
		copy(list[1:idx+1], list[:idx])
		list[0] = b
		syms[n] = uint16(idx + 1)
		freq[idx+1]++
		n++
	}
	n = putRun(syms, freq, n, run)
	syms[n] = symEOB
	freq[symEOB]++
	e.syms = syms[:n+1]
}

// putRun writes a run of MTF zeros at syms[n:] in bijective base 2 — RUNA
// for an odd remainder, RUNB for an even one — and returns the new length.
func putRun(syms []uint16, freq *[numSymbols]int, n, run int) int {
	for ; run > 0; run = (run - 1) >> 1 {
		s := (run - 1) & 1
		syms[n] = uint16(s)
		freq[s]++
		n++
	}
	return n
}

// undoRLE2MTF inverts RLE2 and move-to-front in one pass over d.syms,
// leaving the block's last column in d.last and how often each byte occurs
// in it in d.freq, tallied as it is written. A zero run is a run of the
// list's front byte, so it is one fill and leaves the list alone. The
// block may not outgrow size, the length its header declared: that is
// checked as each run accumulates, before anything is written.
func (d *decoder) undoRLE2MTF(size int) error {
	d.last = slices.Grow(d.last[:0], size)[:size]
	last := d.last
	freq := &d.freq
	clear(freq[:])
	var list [256]byte
	for i := range list {
		list[i] = byte(i)
	}
	n := 0
	run, bit := 0, 0
	for _, s := range d.syms {
		if s == symRUNA || s == symRUNB {
			run += int(s+1) << bit
			bit++
			if run > size-n {
				return errBlockTooLarge
			}
			continue
		}
		if run > 0 {
			front := list[0]
			freq[front] += uint32(run)
			for end := n + run; n < end; n++ {
				last[n] = front
			}
			run, bit = 0, 0
		}
		switch {
		case s == symEOB:
			d.last = last[:n]
			return nil
		case s <= 256:
			if n >= size {
				return errBlockTooLarge
			}
			idx := int(s - 1)
			b := list[idx]
			if idx < 8 {
				// The entries ahead of b are in the list's first word:
				// shift them down a byte under a mask, b in front.
				w := binary.LittleEndian.Uint64(list[:8])
				moved := uint64(1)<<(8*idx+8) - 1 // bytes 0..idx; all eight at idx 7
				binary.LittleEndian.PutUint64(list[:8], (w<<8|uint64(b))&moved|w&^moved)
			} else {
				copy(list[1:idx+1], list[:idx])
				list[0] = b
			}
			last[n] = b
			freq[b]++
			n++
		default:
			return errBadSymbol
		}
	}
	return errMissingEOB
}

// undoBWTRLE1 inverts the transform of d.last from row ptr into d.last
// itself — nothing reads the column once buildNext has packed it into the
// vectors — and undoes RLE1 from there in one sequential pass, appending
// the raw block to out a span at a time. A column on which inverse's two
// chains do not meet is refused. Only a count byte lets output outrun
// input, so the size limit — out may reach base+maxSize when maxSize is
// positive — is checked before every write, not after the block. The
// caller verifies the block CRC over the appended bytes before it lets
// anyone see them.
func (d *decoder) undoBWTRLE1(out []byte, ptr, base, maxSize int) ([]byte, error) {
	rle := d.last
	if len(rle) == 0 {
		return out, nil
	}
	limit := math.MaxInt
	if maxSize > 0 {
		limit = base + maxSize
	}
	errLimit := func() ([]byte, error) {
		return nil, fmt.Errorf("%w: output exceeds limit %d", ErrCorrupt, maxSize)
	}
	next, lf := d.buildNext(rle)
	if !inverse(rle, next, lf, ptr) {
		return nil, errNotATransform
	}
	out = slices.Grow(out, min(len(rle), limit-len(out)))
	for len(rle) > 0 {
		// Copy through the fourth byte of the next run of four equal
		// bytes, or to the end; the byte after such a run is its count.
		k, run := 1, 1
		for ; k < len(rle) && run < 4; k++ {
			if rle[k] == rle[k-1] {
				run++
			} else {
				run = 1
			}
		}
		if k > limit-len(out) {
			return errLimit()
		}
		out = append(out, rle[:k]...)
		if run < 4 {
			break
		}
		if k == len(rle) {
			return nil, errMissingRunCount
		}
		b, count := rle[k-1], int(rle[k])
		if count > limit-len(out) {
			return errLimit()
		}
		for range count {
			out = append(out, b)
		}
		rle = rle[k+1:]
	}
	return out, nil
}
