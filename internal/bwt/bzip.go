package bwt

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bitio"
	"repro/internal/checksum"
	"repro/internal/huffman"
)

// Container-level errors.
var (
	ErrCorrupt         = errors.New("bwt: corrupt stream")
	errMissingRunCount = fmt.Errorf("%w: RLE1 run missing count byte", ErrCorrupt)
	errBlockTooLarge   = fmt.Errorf("%w: block exceeds size limit", ErrCorrupt)
	errBadSymbol       = fmt.Errorf("%w: symbol out of range", ErrCorrupt)
	errMissingEOB      = fmt.Errorf("%w: missing end-of-block", ErrCorrupt)
	errNotATransform   = fmt.Errorf("%w: not a transform: the chains from the row pointer do not meet", ErrCorrupt)
)

const (
	// blockSizeUnit is bzip2's 100k block-size granularity; level N uses
	// N*blockSizeUnit bytes per block.
	blockSizeUnit = 100 * 1000

	maxHuffBits = 20

	magic0 = 'B'
	magic1 = 'Z'
	magic2 = 'r' // our simplified container, not bit-compatible with 'h'
)

// encoder is the compression workspace: the block sort's arrays, the buffers
// the block passes between stages, the block's Huffman code and the
// stream being written. It grows to the largest block it has compressed.
type encoder struct {
	rot     []byte  // the block rotated to its least rotation
	sa, bkt []int32 // its Lyndon root's suffix array; the sort's counters and LMS bitmaps

	rle   []byte   // RLE1 output: what the transform sorts
	last  []byte   // its last column
	syms  []uint16 // the RLE2 symbol stream and its histogram
	freq  [numSymbols]int
	lens  [numSymbols]uint8
	codes [numSymbols]uint32
	out   sliceWriter
}

var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

// Compress compresses data with block size level*100k (level 1..9; the
// paper uses bzip2 -9).
func Compress(data []byte, level int) ([]byte, error) {
	if level < 1 || level > 9 {
		return nil, fmt.Errorf("bwt: level %d out of range 1..9", level)
	}
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	e.out.b = append(e.out.b[:0], magic0, magic1, magic2, byte('0'+level))
	bw := bitio.NewMSBWriter(&e.out)
	blockSize := level * blockSizeUnit

	for start := 0; start < len(data); start += blockSize {
		end := min(start+blockSize, len(data))
		if err := e.compressBlock(bw, data[start:end]); err != nil {
			return nil, err
		}
	}
	bw.WriteBits(0, 1) // end-of-stream marker
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return slices.Clone(e.out.b), nil
}

func (e *encoder) compressBlock(bw *bitio.MSBWriter, raw []byte) error {
	bw.WriteBits(1, 1) // block marker
	crc := checksum.CRC32(raw)

	e.rle = appendRLE1(e.rle[:0], raw)
	e.last = slices.Grow(e.last[:0], len(e.rle))[:len(e.rle)]
	ptr := e.transform(e.last, e.rle)
	e.mtfRLE2(e.last)
	if err := huffman.BuildLengthsInto(e.lens[:], e.freq[:], maxHuffBits); err != nil {
		return err
	}
	if err := huffman.CanonicalCodesInto(e.codes[:], e.lens[:]); err != nil {
		return err
	}

	bw.WriteBits(uint64(crc), 32)
	bw.WriteBits(uint64(len(e.rle)), 32)
	bw.WriteBits(uint64(ptr), 32)
	for _, l := range e.lens {
		bw.WriteBits(uint64(l), 5)
	}
	for _, s := range e.syms {
		bw.WriteBits(uint64(e.codes[s]), uint(e.lens[s]))
	}
	return bw.Err()
}

// Decompress decodes a stream produced by Compress. maxSize, if positive,
// bounds the total decompressed size.
func Decompress(data []byte, maxSize int) ([]byte, error) {
	return DecompressAppend(nil, data, maxSize)
}

// decoder is the decompression workspace: the bit reader over the stream,
// the block's Huffman code, and the arrays a block passes through — its
// symbols, its last column (with that column's byte histogram), which the
// inverse transform overwrites with the RLE1 stream, and that transform's
// two vectors. They grow to the largest block decoded, each only once the
// header checks and the stage before it have passed: 11 bytes per block
// byte.
type decoder struct {
	src  sliceReader
	br   bitio.MSBReader
	lens [numSymbols]uint8
	huff huffman.Decoder
	syms []uint16
	last []byte
	freq [256]uint32
	next []uint32
	lf   []uint32
}

var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

// DecompressAppend is Decompress appending to dst (which may be nil or
// recycled from a pool); maxSize bounds the appended bytes.
func DecompressAppend(dst, data []byte, maxSize int) ([]byte, error) {
	d := decoderPool.Get().(*decoder)
	defer decoderPool.Put(d)
	return d.decompressAppend(dst, data, maxSize)
}

func (d *decoder) decompressAppend(dst, data []byte, maxSize int) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: too short", ErrCorrupt)
	}
	if data[0] != magic0 || data[1] != magic1 || data[2] != magic2 {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	level := int(data[3] - '0')
	if level < 1 || level > 9 {
		return nil, fmt.Errorf("%w: bad level %q", ErrCorrupt, data[3])
	}
	d.src.b = data[4:]
	defer func() { d.src.b = nil }() // a pooled workspace must not pin the stream
	d.br.Reset(&d.src)
	budget := columnBudget(level)

	out := dst
	base := len(out)
	for {
		marker := d.br.ReadBits(1)
		if d.br.Err() != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, d.br.Err())
		}
		if marker == 0 {
			break
		}
		var err error
		if out, err = d.decompressBlock(out, base, maxSize, budget); err != nil {
			return nil, err
		}
	}
	if out == nil {
		out = []byte{}
	}
	return out, nil
}

// columnBudget is the longest column a block of the level may declare:
// RLE1 never expands by more than 25% plus slack, so anything longer is
// corrupt. The inverse transform's packed vectors rely on it staying
// within maxColumn.
func columnBudget(level int) int {
	blockLimit := level * blockSizeUnit
	return blockLimit + blockLimit/4 + 64
}

// decompressBlock decodes the next block of d.br and appends it to out,
// whose first base bytes were the caller's. budget is the level's
// columnBudget.
func (d *decoder) decompressBlock(out []byte, base, maxSize, budget int) ([]byte, error) {
	br := &d.br
	crc := uint32(br.ReadBits(32))
	rleLen := int(br.ReadBits(32))
	ptr := int(br.ReadBits(32))
	if br.Err() != nil {
		return nil, fmt.Errorf("%w: block header: %v", ErrCorrupt, br.Err())
	}
	if rleLen < 0 || rleLen > budget {
		return nil, fmt.Errorf("%w: rle length %d", ErrCorrupt, rleLen)
	}
	if ptr < 0 || (rleLen > 0 && ptr >= rleLen) {
		return nil, fmt.Errorf("%w: pointer %d out of block %d", ErrCorrupt, ptr, rleLen)
	}
	for i := range d.lens {
		v := br.ReadBits(5)
		if v > maxHuffBits {
			return nil, fmt.Errorf("%w: code length %d", ErrCorrupt, v)
		}
		d.lens[i] = uint8(v)
	}
	if br.Err() != nil {
		return nil, fmt.Errorf("%w: code lengths: %v", ErrCorrupt, br.Err())
	}
	if err := d.huff.Reset(d.lens[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	syms, err := d.huff.AppendMSB(d.syms[:0], br, symEOB, 2*rleLen+64)
	d.syms = syms
	if err != nil {
		return nil, fmt.Errorf("%w: symbol stream: %v", ErrCorrupt, err)
	}
	if err := d.undoRLE2MTF(rleLen); err != nil {
		return nil, err
	}
	if len(d.last) != rleLen {
		return nil, fmt.Errorf("%w: MTF length %d, header says %d", ErrCorrupt, len(d.last), rleLen)
	}
	start := len(out)
	out, err = d.undoBWTRLE1(out, ptr, base, maxSize)
	if err != nil {
		return nil, err
	}
	if checksum.CRC32(out[start:]) != crc {
		return nil, fmt.Errorf("%w: block CRC mismatch", ErrCorrupt)
	}
	return out, nil
}

type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

type sliceReader struct{ b []byte }

func (s *sliceReader) Read(p []byte) (int, error) {
	if len(s.b) == 0 {
		return 0, errEOF
	}
	n := copy(p, s.b)
	s.b = s.b[n:]
	return n, nil
}

var errEOF = errors.New("EOF")
