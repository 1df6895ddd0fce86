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
	"errors"
	"fmt"
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

// decoder is the decode workspace: the dictionary as three parallel
// tables over the 16-bit code space (448 KiB), recycled through
// decoderPool and never re-zeroed. suffix/prefixOf map codes back to
// strings; lenOf caches each code's expansion length so output space is
// reserved before the chain walk. Leftovers are harmless: literals are
// written once, by newDecoder; a code >= firstCode is looked up only past
// the `code < nextCode` check, and this stream wrote every slot below
// nextCode; slot 256 alone can be read unwritten (by a stream without
// block mode, which must find lenOf[256] == 0), so it is zeroed per stream.
type decoder struct {
	suffix   [1 << MaxBits]byte
	prefixOf [1 << MaxBits]uint16
	lenOf    [1 << MaxBits]int32
}

func newDecoder() *decoder {
	d := new(decoder)
	for i := 0; i < 256; i++ {
		d.suffix[i] = byte(i)
		d.lenOf[i] = 1
	}
	return d
}

var decoderPool = sync.Pool{New: func() any { return newDecoder() }}

// DecompressAppend is Decompress appending to dst (which may be nil or
// recycled from a pool); maxSize bounds the appended bytes. Each code's
// string is written backwards straight into the output — the dictionary
// tracks expansion lengths, so there is no scratch buffer and no reverse
// pass.
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

	d.lenOf[clearCode] = 0
	size := 1 << maxBits
	nextCode := firstCode
	width := uint(MinBits)

	// Codes are read LSB-first straight from body: acc holds accBits
	// unread bits (under 16+8), pos is the next byte to load.
	var acc uint32
	var accBits uint
	pos := 0

	prev := int32(-1)
	var prevFirst byte
	for {
		// Mirror the encoder's width schedule: the decoder runs one table
		// entry behind, so it widens one code earlier.
		if prev >= 0 && nextCode == 1<<width-1 && width < uint(maxBits) {
			width++
		}
		for ; accBits < width && pos < len(body); pos++ {
			acc |= uint32(body[pos]) << accBits
			accBits += 8
		}
		// The stream ends where no whole code is left; trailing bits are
		// the encoder's padding.
		if accBits < width {
			break
		}
		code := uint16(acc & (1<<width - 1))
		acc >>= width
		accBits -= width
		if blockMode && code == clearCode {
			nextCode = firstCode
			width = MinBits
			prev = -1
			continue
		}
		// KwKwK: the one code the decoder has not seen yet; its string is
		// prev's string plus prev's first byte.
		kwkwk := prev >= 0 && int(code) == nextCode && nextCode < size
		var n int
		if kwkwk {
			n = int(d.lenOf[prev]) + 1
		} else {
			if int(code) >= nextCode {
				return nil, fmt.Errorf("%w: code %d beyond table %d", ErrCorrupt, code, nextCode)
			}
			n = int(d.lenOf[code])
		}
		if n <= 0 {
			return nil, fmt.Errorf("%w: code %d has no expansion", ErrCorrupt, code)
		}
		if maxSize > 0 && len(out)-base+n > maxSize {
			return nil, fmt.Errorf("%w: output exceeds limit %d", ErrCorrupt, maxSize)
		}
		out = slices.Grow(out, n)
		start := len(out)
		out = out[:start+n]
		i := start + n - 1
		c := code
		if kwkwk {
			out[i] = prevFirst
			i--
			c = uint16(prev)
		}
		for c >= 256 {
			out[i] = d.suffix[c]
			i--
			c = d.prefixOf[c]
		}
		out[i] = byte(c)
		first := out[start]
		if prev >= 0 && nextCode < size {
			d.suffix[nextCode] = first
			d.prefixOf[nextCode] = uint16(prev)
			d.lenOf[nextCode] = d.lenOf[prev] + 1
			nextCode++
		}
		prev = int32(code)
		prevFirst = first
	}
	if out == nil {
		out = []byte{}
	}
	return out, nil
}
