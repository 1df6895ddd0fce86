// Package bitio provides bit-level readers and writers in both LSB-first
// (DEFLATE, LZW .Z) and MSB-first (bzip2) packing orders.
//
// The writers append to a byte slice in place and the readers read one in
// place. All of them surface errors through a sticky error returned from
// Flush/Err so that hot loops do not need per-call error checks.
package bitio

import (
	"encoding/binary"
	"errors"
	"io"
	"slices"
)

// ErrBitOverflow is returned when a caller asks to write or read more than 57
// bits in a single call, which exceeds the accumulator guarantee.
var ErrBitOverflow = errors.New("bitio: bit count out of range")

const maxBitsPerCall = 57

// LSBWriter packs bits least-significant-bit first, the order used by DEFLATE
// and by the LZW .Z format, appending them to its slice in place. Between
// calls the accumulator holds fewer than eight bits: every WriteBits stores
// the accumulator's eight bytes at the end of the slice and keeps the whole
// ones, so the slice's spare capacity is the writer's.
type LSBWriter struct {
	w   io.Writer // NewLSBWriter's destination; nil after Reset
	acc uint64
	n   uint
	buf []byte
	err error
}

// NewLSBWriter returns an LSBWriter whose Flush hands what it holds to w in
// one Write. It exists for the benchmark's Huffman decode probe, which
// writes into a bytes.Buffer; the encoders append in place through Reset.
func NewLSBWriter(w io.Writer) *LSBWriter {
	return &LSBWriter{w: w}
}

// Reset makes the writer append to dst and clears its bits and sticky
// error, so a writer held in a pooled workspace (the zero value included)
// writes one stream after another. Reset(nil) lets go of the last stream.
func (bw *LSBWriter) Reset(dst []byte) {
	*bw = LSBWriter{buf: dst}
}

// WriteBits writes the low n bits of v, LSB first. n must be <= 57.
func (bw *LSBWriter) WriteBits(v uint64, n uint) {
	if bw.err != nil {
		return
	}
	if n > maxBitsPerCall {
		bw.err = ErrBitOverflow
		return
	}
	acc, have := bw.acc|(v&(1<<n-1))<<bw.n, bw.n+n
	at := len(bw.buf)
	if cap(bw.buf)-at < 8 {
		bw.buf = slices.Grow(bw.buf, 8)
	}
	binary.LittleEndian.PutUint64(bw.buf[at:at+8], acc)
	bw.buf = bw.buf[:at+int(have>>3)]
	bw.acc, bw.n = acc>>(have&^7), have&7
}

// WriteBytes appends whole bytes. The writer must be byte-aligned.
func (bw *LSBWriter) WriteBytes(p []byte) {
	if bw.err != nil {
		return
	}
	if bw.n != 0 {
		bw.err = errors.New("bitio: WriteBytes on unaligned writer")
		return
	}
	bw.buf = append(bw.buf, p...)
}

// Align pads with zero bits to the next byte boundary.
func (bw *LSBWriter) Align() {
	if bw.n > 0 {
		bw.WriteBits(0, 8-bw.n)
	}
}

// Flush aligns to a byte boundary and reports the first error encountered.
// A writer made by NewLSBWriter then hands the bytes it holds to its
// io.Writer and starts on an empty slice.
func (bw *LSBWriter) Flush() error {
	bw.Align()
	if bw.w != nil && bw.err == nil && len(bw.buf) > 0 {
		_, bw.err = bw.w.Write(bw.buf)
		bw.buf = bw.buf[:0]
	}
	return bw.err
}

// Bytes returns the slice the writer appended to: after Flush, the stream
// whole, behind whatever the slice held when it was handed to Reset.
func (bw *LSBWriter) Bytes() []byte { return bw.buf }

// Err reports the sticky error, if any.
func (bw *LSBWriter) Err() error { return bw.err }

// LSBReader unpacks bits least-significant-bit first from a byte slice it
// reads in place: its one user in the program, the inflater, holds the
// whole stream in memory. Besides the consuming ReadBits API it offers a
// PeekBits/Consume fast path: decode hot loops peek a fixed window (a
// Huffman table index) and consume only the bits a symbol used, and the
// accumulator is topped up with bulk 8-byte loads; Bits/SetBits lend its
// state to a loop that refills from the slice itself.
type LSBReader struct {
	acc uint64
	n   uint
	buf []byte
	pos int
	// err is the sticky error: a read or consume past the end of the slice,
	// or the failure of NewLSBReader's source.
	err error
}

// NewLSBReader returns an LSBReader over everything r holds: it reads r
// whole once, and a read error becomes the sticky Err (the bytes before it
// still read). It exists for the benchmark's Huffman decode probe, which
// hands it a bytes.Reader; the inflater holds its input and calls Reset.
func NewLSBReader(r io.Reader) *LSBReader {
	b, err := io.ReadAll(r)
	return &LSBReader{buf: b, err: err}
}

// Reset rebinds the reader to b, which it reads but never writes, and
// drops all buffered bits and the sticky error, so a reader held in a
// pooled workspace (the zero value included) serves one stream after
// another. Reset(nil) lets go of the last stream.
func (br *LSBReader) Reset(b []byte) {
	*br = LSBReader{buf: b}
}

// refill tops up the accumulator to at least need bits (need <= 57) when
// the slice still has them, loading 8 bytes per step away from its tail.
func (br *LSBReader) refill(need uint) {
	for br.n < need {
		if br.pos+8 <= len(br.buf) && br.n <= 48 {
			br.acc |= binary.LittleEndian.Uint64(br.buf[br.pos:]) << br.n
			adv := (63 - br.n) >> 3 // whole bytes that fit below bit 64
			br.pos += int(adv)
			br.n += 8 * adv
			br.acc &= 1<<br.n - 1 // drop the partially-loaded high byte
			continue
		}
		if br.pos >= len(br.buf) {
			return
		}
		br.acc |= uint64(br.buf[br.pos]) << br.n
		br.pos++
		br.n += 8
	}
}

// ReadBits reads n bits, LSB first. Reading past the end of the slice
// returns 0 and sets the sticky error to io.ErrUnexpectedEOF.
func (br *LSBReader) ReadBits(n uint) uint64 {
	if n > maxBitsPerCall {
		if br.err == nil {
			br.err = ErrBitOverflow
		}
		return 0
	}
	if br.n < n {
		br.refill(n)
		if br.n < n {
			if br.err == nil {
				br.err = io.ErrUnexpectedEOF
			}
			return 0
		}
	}
	v := br.acc & (1<<n - 1)
	br.acc >>= n
	br.n -= n
	return v
}

// PeekBits returns the next n bits (LSB first) without consuming them,
// zero-padded when the stream ends within the window. n must be <= 57.
// Peeking past the end is not an error; only Consume detects over-reads.
func (br *LSBReader) PeekBits(n uint) uint64 {
	if br.n < n {
		br.refill(n)
	}
	return br.acc & (1<<n - 1)
}

// Consume discards n previously peeked bits. Consuming more bits than the
// stream actually held sets the sticky error.
func (br *LSBReader) Consume(n uint) {
	if n > br.n {
		if br.err == nil {
			br.err = io.ErrUnexpectedEOF
		}
		br.acc, br.n = 0, 0
		return
	}
	br.acc >>= n
	br.n -= n
}

// Bits lends the reader's state to a decode loop that refills from the
// slice itself: the accumulator, the count of bits it holds (at most 64;
// the bits above the count are clear), and the slice with the index of its
// first byte not yet in the accumulator. The reader is unchanged until
// SetBits hands the state back.
func (br *LSBReader) Bits() (acc uint64, n uint, buf []byte, pos int) {
	return br.acc, br.n, br.buf, br.pos
}

// SetBits takes back the state a Bits caller advanced: the low n bits of
// acc are the stream's next bits (the rest are cleared; n must be below
// 64), followed by the slice from pos on.
func (br *LSBReader) SetBits(acc uint64, n uint, pos int) {
	br.acc, br.n, br.pos = acc&(1<<n-1), n, pos
}

// Align discards bits up to the next byte boundary.
func (br *LSBReader) Align() {
	drop := br.n % 8
	br.acc >>= drop
	br.n -= drop
}

// ReadBytes reads exactly len(p) whole bytes. The reader must be aligned.
// Reading past the end of the slice sets the sticky error and returns it.
func (br *LSBReader) ReadBytes(p []byte) error {
	if br.n%8 != 0 {
		return errors.New("bitio: ReadBytes on unaligned reader")
	}
	i := 0
	for ; i < len(p) && br.n >= 8; i++ {
		p[i] = byte(br.acc)
		br.acc >>= 8
		br.n -= 8
	}
	c := copy(p[i:], br.buf[br.pos:])
	br.pos += c
	if i+c < len(p) {
		if br.err == nil {
			br.err = io.ErrUnexpectedEOF
		}
		return br.err
	}
	return nil
}

// Err reports the sticky error, if any, so checking it per symbol is one
// load.
func (br *LSBReader) Err() error { return br.err }

// AtEOF reports whether every bit of the slice has been consumed.
func (br *LSBReader) AtEOF() bool { return br.n == 0 && br.pos == len(br.buf) }

// MSBWriter packs bits most-significant-bit first, the order used by bzip2,
// appending them to its slice in place as LSBWriter does. Its accumulator
// is filled from the top, so that its big-endian store puts the oldest bits
// first; it too keeps fewer than eight bits between calls.
type MSBWriter struct {
	acc uint64
	n   uint
	buf []byte
	err error
}

// NewMSBWriter returns an MSBWriter appending to dst.
func NewMSBWriter(dst []byte) *MSBWriter {
	return &MSBWriter{buf: dst}
}

// Reset makes the writer append to dst and clears its bits and sticky
// error, as LSBWriter.Reset does.
func (bw *MSBWriter) Reset(dst []byte) {
	*bw = MSBWriter{buf: dst}
}

// WriteBits writes the low n bits of v with the most significant of those
// bits first. n must be <= 57.
func (bw *MSBWriter) WriteBits(v uint64, n uint) {
	if bw.err != nil {
		return
	}
	if n > maxBitsPerCall {
		bw.err = ErrBitOverflow
		return
	}
	have := bw.n + n
	acc := bw.acc | (v&(1<<n-1))<<(64-have)
	at := len(bw.buf)
	if cap(bw.buf)-at < 8 {
		bw.buf = slices.Grow(bw.buf, 8)
	}
	binary.BigEndian.PutUint64(bw.buf[at:at+8], acc)
	bw.buf = bw.buf[:at+int(have>>3)]
	bw.acc, bw.n = acc<<(have&^7), have&7
}

// Flush pads with zero bits to a byte boundary and reports the first error.
func (bw *MSBWriter) Flush() error {
	if bw.n > 0 {
		bw.WriteBits(0, 8-bw.n)
	}
	return bw.err
}

// Bytes returns the slice the writer appended to, as LSBWriter.Bytes does.
func (bw *MSBWriter) Bytes() []byte { return bw.buf }

// Err reports the sticky error, if any.
func (bw *MSBWriter) Err() error { return bw.err }

// MSBReader unpacks bits most-significant-bit first from a byte slice it
// reads in place: its one user, the bzip2 decoder, holds the whole stream
// in memory. Like LSBReader it offers PeekBits/Consume with bulk refills
// for table-driven decode loops, and Bits/SetBits for a loop that refills
// from the slice itself.
type MSBReader struct {
	acc uint64
	n   uint
	buf []byte
	pos int
	err error
}

// NewMSBReader returns an MSBReader over b.
func NewMSBReader(b []byte) *MSBReader {
	return &MSBReader{buf: b}
}

// Reset rebinds the reader to b, which it reads but never writes, and
// drops all buffered bits and the sticky error, so a reader held in a
// pooled workspace (the zero value included) serves one stream after
// another. Reset(nil) lets go of the last stream.
func (br *MSBReader) Reset(b []byte) {
	*br = MSBReader{buf: b}
}

// refill tops up the accumulator to at least need bits (need <= 57) when
// the slice still has them, loading 8 bytes per step away from its tail.
func (br *MSBReader) refill(need uint) {
	for br.n < need {
		if br.pos+8 <= len(br.buf) && br.n <= 48 {
			x := binary.BigEndian.Uint64(br.buf[br.pos:])
			adv := (63 - br.n) >> 3
			br.acc = br.acc<<(8*adv) | x>>(64-8*adv)
			br.pos += int(adv)
			br.n += 8 * adv
			continue
		}
		if br.pos >= len(br.buf) {
			return
		}
		br.acc = (br.acc << 8) | uint64(br.buf[br.pos])
		br.pos++
		br.n += 8
	}
}

// ReadBits reads n bits MSB first. Reading past the end of the slice
// returns 0 and sets the sticky error to io.ErrUnexpectedEOF.
func (br *MSBReader) ReadBits(n uint) uint64 {
	if n > maxBitsPerCall {
		if br.err == nil {
			br.err = ErrBitOverflow
		}
		return 0
	}
	if n == 0 {
		return 0
	}
	if br.n < n {
		br.refill(n)
		if br.n < n {
			if br.err == nil {
				br.err = io.ErrUnexpectedEOF
			}
			return 0
		}
	}
	v := (br.acc >> (br.n - n)) & (1<<n - 1)
	br.n -= n
	br.acc &= 1<<br.n - 1
	return v
}

// PeekBits returns the next n bits (MSB first) without consuming them. If
// the stream ends inside the window the missing low bits read as zero.
// The refill is out of line, so that what a decode loop pays per symbol
// inlines.
func (br *MSBReader) PeekBits(n uint) uint64 {
	if br.n < n {
		return br.peekRefill(n)
	}
	return (br.acc >> (br.n - n)) & (1<<n - 1)
}

// peekRefill is PeekBits when the accumulator holds fewer than n bits.
func (br *MSBReader) peekRefill(n uint) uint64 {
	br.refill(n)
	if br.n < n {
		// Left-align what is left: missing future bits read as zero.
		return (br.acc << (n - br.n)) & (1<<n - 1)
	}
	return (br.acc >> (br.n - n)) & (1<<n - 1)
}

// Consume discards n previously peeked bits; over-consuming past the end
// of the stream sets the sticky error.
func (br *MSBReader) Consume(n uint) {
	if n > br.n {
		if br.err == nil {
			br.err = io.ErrUnexpectedEOF
		}
		br.acc, br.n = 0, 0
		return
	}
	br.n -= n
	br.acc &= 1<<br.n - 1
}

// Bits lends the reader's state to a decode loop that refills from the
// slice itself: the accumulator, whose low n bits are the stream's next
// bits, most significant first (n is at most 64; the bits above it are
// clear), and the slice with the index of its first byte not yet in the
// accumulator. The reader is unchanged until SetBits hands the state back.
func (br *MSBReader) Bits() (acc uint64, n uint, buf []byte, pos int) {
	return br.acc, br.n, br.buf, br.pos
}

// SetBits takes back the state a Bits caller advanced: the low n bits of
// acc are the stream's next bits (the rest are cleared; n must be at most
// 64), followed by the slice from pos on.
func (br *MSBReader) SetBits(acc uint64, n uint, pos int) {
	br.acc, br.n, br.pos = acc&(1<<n-1), n, pos
}

// Err reports the sticky error, if any, as LSBReader.Err does.
func (br *MSBReader) Err() error { return br.err }
