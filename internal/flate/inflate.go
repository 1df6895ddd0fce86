package flate

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/bitio"
	"repro/internal/huffman"
	"repro/internal/lz77"
)

// ErrCorrupt is returned when the DEFLATE stream is structurally invalid.
var ErrCorrupt = errors.New("flate: corrupt stream")

// inflater is Inflate's workspace: the bit reader with its copy buffer and
// the dynamic-block codes. One inflate allocates nothing beyond dst's
// growth.
type inflater struct {
	br    bitio.LSBReader
	codes dynamicCodes
}

var inflaterPool = sync.Pool{New: func() any { return new(inflater) }}

// Inflate decompresses a complete DEFLATE stream from r, appending to dst
// (which may be nil). The stream must be all of r: a byte left behind the
// final block is an error, so a container that cut its trailer off the end
// knows the two were adjacent. maxSize, if positive, bounds the bytes
// appended, to protect against decompression bombs.
func Inflate(dst []byte, r io.Reader, maxSize int) ([]byte, error) {
	z := inflaterPool.Get().(*inflater)
	defer inflaterPool.Put(z)
	br := &z.br
	br.Reset(r)
	defer br.Reset(nil) // a pooled workspace must not pin the caller's stream
	base := len(dst)    // where this stream's own output, all a match may copy from, begins
	if maxSize > 0 {
		maxSize += base
	}
	for {
		final := br.ReadBits(1)
		btype := br.ReadBits(2)
		if err := br.Err(); err != nil {
			return nil, fmt.Errorf("%w: block header: %v", ErrCorrupt, err)
		}
		var err error
		switch btype {
		case 0:
			dst, err = inflateStored(dst, br, maxSize)
		case 1:
			dst, err = inflateHuffman(dst, base, br, fixedLit, fixedDist, maxSize)
		case 2:
			if err = z.codes.read(br); err == nil {
				dst, err = inflateHuffman(dst, base, br, &z.codes.lit, &z.codes.dist, maxSize)
			}
		default:
			err = fmt.Errorf("%w: reserved block type", ErrCorrupt)
		}
		if err != nil {
			return nil, err
		}
		if final == 1 {
			var one [1]byte
			if br.Align(); br.ReadBytes(one[:]) == nil {
				return nil, fmt.Errorf("%w: data after the final block", ErrCorrupt)
			}
			return dst, nil
		}
	}
}

func inflateStored(dst []byte, br *bitio.LSBReader, maxSize int) ([]byte, error) {
	br.Align()
	n := br.ReadBits(16)
	nlen := br.ReadBits(16)
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("%w: stored header: %v", ErrCorrupt, err)
	}
	if n != ^nlen&0xffff {
		return nil, fmt.Errorf("%w: stored LEN/NLEN mismatch", ErrCorrupt)
	}
	if maxSize > 0 && len(dst)+int(n) > maxSize {
		return nil, fmt.Errorf("%w: output exceeds limit %d", ErrCorrupt, maxSize)
	}
	dst = slices.Grow(dst, int(n))
	end := len(dst) + int(n)
	if err := br.ReadBytes(dst[len(dst):end]); err != nil {
		return nil, fmt.Errorf("%w: stored payload: %v", ErrCorrupt, err)
	}
	return dst[:end], nil
}

// The fixed decoders are immutable after construction and safe to share.
var (
	fixedLit  = mustDecoder(fixedLitLengths())
	fixedDist = mustDecoder(fixedDistLengths())
)

func mustDecoder(lens []uint8) *huffman.Decoder {
	d, err := huffman.NewDecoder(lens)
	if err != nil {
		panic("flate: fixed code construction failed: " + err.Error())
	}
	return d
}

// dynamicCodes is the storage one dynamic block header decodes into: the
// code-length arrays and the three decoders, each rebuilt in place, so a
// stream of dynamic blocks allocates no tables after the first.
type dynamicCodes struct {
	clLens        [numCLSymbols]uint8
	lens          [maxNumLit + maxNumDist]uint8
	cl, lit, dist huffman.Decoder
}

// read parses a dynamic block header from br and leaves dc.lit and
// dc.dist ready to decode the block.
func (dc *dynamicCodes) read(br *bitio.LSBReader) error {
	nlit := int(br.ReadBits(5)) + 257
	ndist := int(br.ReadBits(5)) + 1
	hclen := int(br.ReadBits(4)) + 4
	if err := br.Err(); err != nil {
		return fmt.Errorf("%w: dynamic header: %v", ErrCorrupt, err)
	}
	if nlit > maxNumLit || ndist > maxNumDist {
		return fmt.Errorf("%w: nlit=%d ndist=%d out of range", ErrCorrupt, nlit, ndist)
	}
	clear(dc.clLens[:])
	for i := 0; i < hclen; i++ {
		dc.clLens[clOrder[i]] = uint8(br.ReadBits(3))
	}
	if err := br.Err(); err != nil {
		return fmt.Errorf("%w: CL lengths: %v", ErrCorrupt, err)
	}
	if err := dc.cl.Reset(dc.clLens[:]); err != nil {
		return fmt.Errorf("%w: CL code: %v", ErrCorrupt, err)
	}
	all := dc.lens[:nlit+ndist]
	clear(all)
	for i := 0; i < len(all); {
		sym, err := dc.cl.DecodeLSB(br)
		if err != nil {
			return fmt.Errorf("%w: CL symbol: %v", ErrCorrupt, err)
		}
		switch {
		case sym <= 15:
			all[i] = uint8(sym)
			i++
		case sym == 16:
			if i == 0 {
				return fmt.Errorf("%w: repeat with no previous length", ErrCorrupt)
			}
			rep := int(br.ReadBits(2)) + 3
			if i+rep > len(all) {
				return fmt.Errorf("%w: repeat overruns lengths", ErrCorrupt)
			}
			v := all[i-1]
			for k := 0; k < rep; k++ {
				all[i] = v
				i++
			}
		case sym == 17:
			rep := int(br.ReadBits(3)) + 3
			if i+rep > len(all) {
				return fmt.Errorf("%w: zero run overruns lengths", ErrCorrupt)
			}
			i += rep
		case sym == 18:
			rep := int(br.ReadBits(7)) + 11
			if i+rep > len(all) {
				return fmt.Errorf("%w: zero run overruns lengths", ErrCorrupt)
			}
			i += rep
		default:
			return fmt.Errorf("%w: CL symbol %d", ErrCorrupt, sym)
		}
	}
	if err := br.Err(); err != nil {
		return fmt.Errorf("%w: lengths: %v", ErrCorrupt, err)
	}
	if err := dc.lit.Reset(all[:nlit]); err != nil {
		return fmt.Errorf("%w: lit/len code: %v", ErrCorrupt, err)
	}
	dist := all[nlit:]
	if slices.Max(dist) == 0 {
		dist = noDistCodes[:]
	}
	if err := dc.dist.Reset(dist); err != nil {
		return fmt.Errorf("%w: dist code: %v", ErrCorrupt, err)
	}
	// A code of one symbol is complete only at one bit; zlib and
	// compress/flate refuse the longer ones, so this does.
	for _, d := range [...]*huffman.Decoder{&dc.lit, &dc.dist} {
		if d.NumSymbols() == 1 && d.MaxLen() > 1 {
			return fmt.Errorf("%w: incomplete code", ErrCorrupt)
		}
	}
	return nil
}

// noDistCodes stands in for the empty distance tree a block of literals may
// declare (RFC 1951 3.2.7): it decodes only to symbols no block may use.
var noDistCodes = [32]uint8{30: 1, 31: 1}

// inflateHuffman is the inflate inner loop, restructured around the
// peek/consume bit reader and the table-driven Huffman kernels: one table
// probe per symbol instead of one reader call per bit, and back-reference
// copies move in chunks (doubling through the overlap when dist < length)
// instead of byte-at-a-time.
func inflateHuffman(dst []byte, base int, br *bitio.LSBReader, litDec, distDec *huffman.Decoder, maxSize int) ([]byte, error) {
	for {
		sym, err := litDec.DecodeLSB(br)
		if err != nil {
			return nil, fmt.Errorf("%w: lit/len: %v", ErrCorrupt, err)
		}
		switch {
		case sym < 256:
			dst = append(dst, byte(sym))
		case sym == endBlockMarker:
			return dst, nil
		case sym <= 285:
			le := lengthTable[sym-257]
			length := int(le.base) + int(br.ReadBits(uint(le.extra)))
			dsym, err := distDec.DecodeLSB(br)
			if err != nil {
				return nil, fmt.Errorf("%w: dist: %v", ErrCorrupt, err)
			}
			if dsym >= maxNumDist {
				return nil, fmt.Errorf("%w: dist code %d", ErrCorrupt, dsym)
			}
			de := distTable[dsym]
			dist := int(de.base) + int(br.ReadBits(uint(de.extra)))
			if err := br.Err(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			if dist > len(dst)-base {
				return nil, fmt.Errorf("%w: distance %d beyond output %d", ErrCorrupt, dist, len(dst)-base)
			}
			if length > lz77.MaxMatch {
				return nil, fmt.Errorf("%w: match length %d", ErrCorrupt, length)
			}
			if maxSize > 0 && len(dst)+length > maxSize {
				return nil, fmt.Errorf("%w: output exceeds limit %d", ErrCorrupt, maxSize)
			}
			start := len(dst) - dist
			if dist >= length {
				// Source and destination cannot overlap: one copy.
				dst = append(dst, dst[start:start+length]...)
			} else {
				// Overlapping copy: the run doubles each append.
				total := len(dst) + length
				for len(dst) < total {
					chunk := len(dst) - start
					if rem := total - len(dst); chunk > rem {
						chunk = rem
					}
					dst = append(dst, dst[start:start+chunk]...)
				}
			}
		default:
			return nil, fmt.Errorf("%w: lit/len symbol %d", ErrCorrupt, sym)
		}
		if maxSize > 0 && len(dst) > maxSize {
			return nil, fmt.Errorf("%w: output exceeds limit %d", ErrCorrupt, maxSize)
		}
	}
}

// DecompressBytes inflates a complete DEFLATE stream held in memory.
func DecompressBytes(data []byte) ([]byte, error) {
	return Inflate(nil, bytesReader(data), 0)
}

func bytesReader(b []byte) io.Reader { return &sliceReader{b: b} }

type sliceReader struct{ b []byte }

func (s *sliceReader) Read(p []byte) (int, error) {
	if len(s.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.b)
	s.b = s.b[n:]
	return n, nil
}
