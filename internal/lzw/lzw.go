// Package lzw implements the LZW compressor of the UNIX compress tool
// (ncompress 4.2.4), the second scheme measured by the paper: a growing
// dictionary with 9- to 16-bit codes and, in block mode, an adaptive
// dictionary reset when the compression ratio starts to decay.
//
// The on-disk framing follows the .Z layout (magic 0x1f 0x9d, a flags byte
// carrying maxBits and the block-mode bit, LSB-first code packing); the
// historical bit-group padding quirk of ncompress is intentionally not
// replicated, so streams are self-consistent rather than bit-identical to
// the 1984 tool.
package lzw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

const (
	magicByte1 = 0x1f
	magicByte2 = 0x9d

	blockModeFlag = 0x80
	maxBitsMask   = 0x1f

	// MinBits and MaxBits bound the code width, as in compress -b.
	MinBits = 9
	MaxBits = 16

	clearCode = 256
	firstCode = 257

	// checkGap is how often (input bytes) the block-mode compressor
	// re-evaluates the compression ratio once the table is full.
	checkGap = 10000
)

// ErrCorrupt is returned for structurally invalid .Z streams.
var ErrCorrupt = errors.New("lzw: corrupt stream")

// dictEntry is one slot of the encoder's table; it is in use if its epoch is
// the table's.
type dictEntry struct {
	key   uint32
	code  uint16
	epoch uint16
}

// hashSize is 2x the max code count, which keeps probe chains short.
const hashSize = 1 << 17

// hashTable is an open-addressed (prefix, byte) -> code map sized for the
// 16-bit code space: 1 MiB, of which a 128 kB block touches a tenth. It is
// emptied by moving to the next epoch, so a stream pays for the slots it
// fills and not for the table; only when the 16-bit epoch comes round, every
// 65,535 clears, are the slots themselves wiped.
type hashTable struct {
	entries [hashSize]dictEntry
	epoch   uint16
}

// encoder is the compression workspace: the table, emptied by whoever takes
// it out of the pool, and the buffer the stream is built in, so that
// Compress allocates only the exact-sized copy it returns.
type encoder struct {
	table hashTable
	out   []byte
}

var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

func (h *hashTable) clear() {
	h.epoch++
	if h.epoch == 0 {
		*h = hashTable{epoch: 1}
	}
}

func key(prefix uint16, b byte) uint32 { return uint32(prefix)<<8 | uint32(b) }

func (h *hashTable) lookup(k uint32) (uint16, bool) {
	i := (k * 2654435761) % hashSize
	for {
		e := h.entries[i]
		if e.epoch != h.epoch {
			return 0, false
		}
		if e.key == k {
			return e.code, true
		}
		i = (i + 1) % hashSize
	}
}

func (h *hashTable) insert(k uint32, code uint16) {
	i := (k * 2654435761) % hashSize
	for h.entries[i].epoch == h.epoch {
		i = (i + 1) % hashSize
	}
	h.entries[i] = dictEntry{key: k, code: code, epoch: h.epoch}
}

// Compress compresses data in the .Z block-mode format with codes up to
// maxBits wide (9..16). The paper's experiments use "compress -b 16".
func Compress(data []byte, maxBits int) ([]byte, error) {
	if maxBits < MinBits || maxBits > MaxBits {
		return nil, fmt.Errorf("lzw: maxBits %d out of range %d..%d", maxBits, MinBits, MaxBits)
	}
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	out := append(e.out[:0], magicByte1, magicByte2, byte(maxBits)|blockModeFlag)
	if len(data) == 0 {
		return slices.Clone(out), nil
	}
	table := &e.table
	table.clear()
	nextCode := firstCode
	width := uint(MinBits)
	maxCode := 1<<maxBits - 1

	// Ratio-decay bookkeeping for the adaptive reset.
	inBytes, outBits := 0, 0
	lastCheck := 0
	var lastRatio float64

	// Codes pack LSB-first; acc never holds more than 7+16 bits.
	var acc uint32
	var accBits uint
	emit := func(code uint16) {
		acc |= uint32(code) << accBits
		accBits += width
		for accBits >= 8 {
			out = append(out, byte(acc))
			acc >>= 8
			accBits -= 8
		}
		outBits += int(width)
	}

	prefix := uint16(data[0])
	inBytes = 1
	for _, c := range data[1:] {
		inBytes++
		k := key(prefix, c)
		if code, ok := table.lookup(k); ok {
			prefix = code
			continue
		}
		emit(prefix)
		if nextCode <= maxCode {
			table.insert(k, uint16(nextCode))
			nextCode++
			if nextCode == 1<<width && width < uint(maxBits) {
				width++
			}
		} else if inBytes-lastCheck >= checkGap {
			// Table is full: consider clearing when the ratio decays,
			// exactly compress's cl_block policy.
			lastCheck = inBytes
			ratio := float64(inBytes*8) / float64(outBits+1)
			if ratio < lastRatio {
				emit(clearCode)
				table.clear()
				nextCode = firstCode
				width = MinBits
				lastRatio = 0
			} else {
				lastRatio = ratio
			}
		}
		prefix = uint16(c)
	}
	emit(prefix)
	if accBits > 0 {
		out = append(out, byte(acc))
	}
	e.out = out // keep what the stream grew it to
	return slices.Clone(out), nil
}

// Decompress decodes a .Z stream produced by Compress. maxSize, if
// positive, bounds the decompressed size.
func Decompress(data []byte, maxSize int) ([]byte, error) {
	return DecompressAppend(nil, data, maxSize)
}

// decoder is the decode workspace: for each code, where its string already
// lies in the output — an offset from the stream's start or its last clear
// code — and its length, over the 16-bit code space (384 KiB), recycled
// through decoderPool and never re-zeroed.
//
// The code added after prev was written at p is out[p : p+len(prev)+1]:
// the byte after prev is the first byte of the next string. Both fields
// fit: a table fills within 65,279 codes of its origin, each at most one
// byte longer than the longest before it, so a string is under 2^16 bytes
// and an offset under 2^31, whatever maxSize allows.
//
// A literal's slot is length 1 at offset 0 (the decoder stores the byte
// itself), written once, by newDecoder. Leftovers are harmless: a code >= firstCode is looked up only past the
// `code < nextCode` check, and this stream wrote every slot below
// nextCode; slot 256 alone can be read unwritten (by a stream without
// block mode, which must find n[256] == 0), so it is zeroed per stream.
type decoder struct {
	off [1 << MaxBits]uint32
	n   [1 << MaxBits]uint16
}

func newDecoder() *decoder {
	d := new(decoder)
	for i := range clearCode {
		d.n[i] = 1
	}
	return d
}

var decoderPool = sync.Pool{New: func() any { return newDecoder() }}

// DecompressAppend is Decompress appending to dst (which may be nil or
// recycled from a pool); maxSize bounds the appended bytes. Each code's
// string is copied forwards from where it already lies in the output,
// eight bytes at a time when it is short. Those word stores may write up
// to 7 bytes past the output's end into dst's spare capacity, never past
// len(dst)+maxSize when maxSize is positive.
func DecompressAppend(dst, data []byte, maxSize int) ([]byte, error) {
	d := decoderPool.Get().(*decoder)
	defer decoderPool.Put(d)
	return d.decompressAppend(dst, data, maxSize)
}

func (d *decoder) decompressAppend(dst, data []byte, maxSize int) ([]byte, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("%w: too short", ErrCorrupt)
	}
	if data[0] != magicByte1 || data[1] != magicByte2 {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	flags := data[2]
	maxBits := int(flags & maxBitsMask)
	blockMode := flags&blockModeFlag != 0
	if maxBits < MinBits || maxBits > MaxBits {
		return nil, fmt.Errorf("%w: maxBits %d", ErrCorrupt, maxBits)
	}
	body := data[3:]
	out := dst
	base := len(out)
	if len(body) == 0 {
		if out == nil {
			out = []byte{}
		}
		return out, nil
	}

	// The output may grow to limit; a word store may write up to end,
	// the nearer of limit and the buffer's capacity.
	limit := math.MaxInt
	if maxSize > 0 && maxSize <= math.MaxInt-base {
		limit = base + maxSize
	}
	end := min(cap(out), limit)

	d.n[clearCode] = 0
	size := 1 << maxBits
	nextCode := firstCode
	width := uint(MinBits)

	// Codes are read LSB-first straight from body: acc holds accBits
	// unread bits, pos is the next byte to load. Eight bytes are loaded at
	// a time while the body has them, so the bits above accBits are the
	// bytes from pos on, or zero: a later load ORs in what is there.
	var acc uint64
	var accBits uint
	pos := 0

	// The table's offsets count from origin. prev, the code before this
	// one, was written at out[prevAt:prevAt+prevLen]; prevLen is 0 when
	// there is none.
	origin := base
	prevAt, prevLen := 0, 0
	for {
		// Mirror the encoder's width schedule: the decoder runs one table
		// entry behind, so it widens one code earlier.
		if prevLen > 0 && nextCode == 1<<width-1 && width < uint(maxBits) {
			width++
		}
		if accBits < width {
			if pos+8 <= len(body) {
				acc |= binary.LittleEndian.Uint64(body[pos:]) << accBits
				k := (63 - accBits) >> 3
				pos += int(k)
				accBits += k << 3
			} else {
				for ; accBits < width && pos < len(body); pos++ {
					acc |= uint64(body[pos]) << accBits
					accBits += 8
				}
				// The stream ends where no whole code is left; trailing
				// bits are the encoder's padding.
				if accBits < width {
					break
				}
			}
		}
		code := int(acc & (1<<width - 1))
		acc >>= width
		accBits -= width
		if blockMode && code == clearCode {
			nextCode = firstCode
			width = MinBits
			origin, prevLen = len(out), 0
			continue
		}
		start := len(out)
		// The code this one adds is prev's string and the byte at start,
		// so it can be entered before this code is looked up. That makes
		// KwKwK — the code being added — an ordinary one, whose copy from
		// prev's occurrence ends one byte into its own.
		if prevLen > 0 && nextCode < size {
			d.off[nextCode] = uint32(prevAt - origin)
			d.n[nextCode] = uint16(prevLen + 1)
			nextCode++
		}
		if code >= nextCode {
			return nil, fmt.Errorf("%w: code %d beyond table %d", ErrCorrupt, code, nextCode)
		}
		from, n := origin+int(d.off[code]), int(d.n[code])
		if n == 0 {
			return nil, fmt.Errorf("%w: code %d has no expansion", ErrCorrupt, code)
		}
		if n > limit-start {
			return nil, fmt.Errorf("%w: output exceeds limit %d", ErrCorrupt, maxSize)
		}
		if n > cap(out)-start {
			out = slices.Grow(out, n)
			end = min(cap(out), limit)
		}
		// A literal's slot has offset 0: its load reads at origin and is
		// replaced by the byte itself.
		if n <= 8 && start+8 <= end {
			w := binary.LittleEndian.Uint64(out[from:end])
			if code < clearCode {
				w = uint64(code)
			}
			binary.LittleEndian.PutUint64(out[start:end], w)
			out = out[:start+n]
		} else if code < clearCode {
			out = append(out, byte(code))
		} else {
			out = out[:start+n]
			copy(out[start:], out[from:from+n])
		}
		if from+n > start { // KwKwK: its last byte is its first
			out[start+n-1] = out[start]
		}
		prevAt, prevLen = start, n
	}
	if out == nil {
		out = []byte{}
	}
	return out, nil
}
