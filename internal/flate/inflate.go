package flate

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"repro/internal/bitio"
	"repro/internal/huffman"
	"repro/internal/lz77"
)

// ErrCorrupt is returned when the DEFLATE stream is structurally invalid.
var ErrCorrupt = errors.New("flate: corrupt stream")

// inflater is the package's one DEFLATE decoder: the bit reader with its
// copy buffer, the dynamic-block codes, and its place in the block
// structure, so that run can stop wherever an output limit falls and a later
// run carries on from there. Inflate takes one from the pool and runs it to
// the end; a Reader owns one and runs it a Read's worth at a time. Decoding
// allocates nothing beyond dst's growth.
type inflater struct {
	br    bitio.LSBReader
	codes dynamicCodes

	inBlock   bool             // a block's header is read and its end is not
	final     bool             // that block, or the one that just ended, is the last
	stored    int              // bytes a stored block has still to hand over
	lit, dist *huffman.Decoder // a Huffman block's codes; lit is nil in a stored block
	copyLen   int              // what the limit cut off a match,
	copyDist  int              // and how far back that match copies from
}

var inflaterPool = sync.Pool{New: func() any { return new(inflater) }}

// reset points z at the start of a stream read from r.
func (z *inflater) reset(r io.Reader) {
	z.br.Reset(r)
	z.inBlock, z.final, z.copyLen = false, false, 0
}

// Inflate decompresses a complete DEFLATE stream from r, appending to dst
// (which may be nil). The stream must be all of r: a byte left behind the
// final block is an error, so a container that cut its trailer off the end
// knows the two were adjacent. maxSize, if positive, bounds the bytes
// appended, to protect against decompression bombs.
func Inflate(dst []byte, r io.Reader, maxSize int) ([]byte, error) {
	z := inflaterPool.Get().(*inflater)
	z.reset(r)
	defer func() {
		z.reset(nil) // a pooled workspace must not pin the caller's stream
		inflaterPool.Put(z)
	}()
	base := len(dst) // where this stream's own output, all a match may copy from, begins
	limit := math.MaxInt
	if maxSize > 0 {
		limit = base + maxSize + 1 // the first length that is too long: a run that gets there is refused
	}
	dst, done, err := z.run(dst, base, limit)
	if err != nil {
		return nil, err
	}
	if !done {
		return nil, fmt.Errorf("%w: output exceeds limit %d", ErrCorrupt, maxSize)
	}
	var one [1]byte
	if z.br.Align(); z.br.ReadBytes(one[:]) == nil {
		return nil, fmt.Errorf("%w: data after the final block", ErrCorrupt)
	}
	return dst, nil
}

// run decodes onto dst until the final block has ended, which it reports as
// done, or len(dst) has reached limit, and returns dst as it then stands.
// Called again with room under the limit it carries on where it stopped. A
// match copies from dst[base:] only; a caller that trims dst between runs
// keeps the last lz77.WindowSize bytes in place.
func (z *inflater) run(dst []byte, base, limit int) (_ []byte, done bool, err error) {
	for len(dst) < limit {
		switch {
		case z.copyLen > 0:
			length := z.copyLen
			z.copyLen = 0 // match sets it again if the limit cuts this part too
			dst = z.match(dst, z.copyDist, length, limit)
		case !z.inBlock && z.final:
			return dst, true, nil
		case !z.inBlock:
			err = z.blockHeader()
		case z.lit == nil:
			dst, err = z.storedBlock(dst, limit)
		default:
			dst, err = z.huffmanBlock(dst, base, limit)
		}
		if err != nil {
			return nil, false, err
		}
	}
	return dst, false, nil
}

// blockHeader reads the next block's header and leaves z inside the block.
func (z *inflater) blockHeader() error {
	br := &z.br
	final := br.ReadBits(1)
	btype := br.ReadBits(2)
	if err := br.Err(); err != nil {
		return fmt.Errorf("%w: block header: %v", ErrCorrupt, err)
	}
	z.inBlock, z.final = true, final == 1
	switch btype {
	case 0:
		br.Align()
		n := br.ReadBits(16)
		nlen := br.ReadBits(16)
		if err := br.Err(); err != nil {
			return fmt.Errorf("%w: stored header: %v", ErrCorrupt, err)
		}
		if n != ^nlen&0xffff {
			return fmt.Errorf("%w: stored LEN/NLEN mismatch", ErrCorrupt)
		}
		z.stored, z.lit = int(n), nil
	case 1:
		z.lit, z.dist = fixedLit, fixedDist
	case 2:
		if err := z.codes.read(br); err != nil {
			return err
		}
		z.lit, z.dist = &z.codes.lit, &z.codes.dist
	default:
		return fmt.Errorf("%w: reserved block type", ErrCorrupt)
	}
	return nil
}

// storedBlock reads what is left of a stored block, or as much of it as the
// limit has room for, straight into dst.
func (z *inflater) storedBlock(dst []byte, limit int) ([]byte, error) {
	n := min(z.stored, limit-len(dst))
	dst = slices.Grow(dst, n)
	end := len(dst) + n
	if err := z.br.ReadBytes(dst[len(dst):end]); err != nil {
		return nil, fmt.Errorf("%w: stored payload: %v", ErrCorrupt, err)
	}
	z.stored -= n
	z.inBlock = z.stored > 0
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

// huffmanBlock is the inflate inner loop, built around the peek/consume
// bit reader and the table-driven Huffman kernels: one table probe per
// symbol instead of one reader call per bit. It returns at the end of the
// block or at the limit.
func (z *inflater) huffmanBlock(dst []byte, base, limit int) ([]byte, error) {
	br, litDec, distDec := &z.br, z.lit, z.dist
	for len(dst) < limit {
		sym, err := litDec.DecodeLSB(br)
		if err != nil {
			return nil, fmt.Errorf("%w: lit/len: %v", ErrCorrupt, err)
		}
		switch {
		case sym < 256:
			dst = append(dst, byte(sym))
		case sym == endBlockMarker:
			z.inBlock = false
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
			dst = z.match(dst, dist, length, limit)
		default:
			return nil, fmt.Errorf("%w: lit/len symbol %d", ErrCorrupt, sym)
		}
	}
	return dst, nil
}

// match appends length bytes that repeat what lies dist back, or as many of
// them as the limit has room for, and leaves the rest for the next run. The
// copy moves in chunks, doubling through the overlap when dist < length,
// not byte at a time; only a match that is cut touches z, which keeps the
// inflate loop's common path free of stores.
func (z *inflater) match(dst []byte, dist, length, limit int) []byte {
	if room := limit - len(dst); length > room {
		z.copyLen, z.copyDist = length-room, dist
		length = room
	}
	start := len(dst) - dist
	if dist >= length {
		return append(dst, dst[start:start+length]...)
	}
	for total := len(dst) + length; len(dst) < total; {
		dst = append(dst, dst[start:min(len(dst), start+total-len(dst))]...)
	}
	return dst
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
