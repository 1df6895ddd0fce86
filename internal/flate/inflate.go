package flate

import (
	"encoding/binary"
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

	inBlock   bool       // a block's header is read and its end is not
	final     bool       // that block, or the one that just ended, is the last
	stored    int        // bytes a stored block has still to hand over
	lit, dist *codeTable // a Huffman block's codes; lit is nil in a stored block
	copyLen   int        // what the limit cut off a match,
	copyDist  int        // and how far back that match copies from
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
// appended, to protect against decompression bombs. dst's spare capacity
// is scratch: a match's last 8-byte store may reach up to fastSlop bytes
// past the bytes appended.
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
		z.lit, z.dist = &z.codes.litTable, &z.codes.distTable
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

// The fixed codes' tables are built once and shared: nothing writes them.
var fixedLit, fixedDist = fixedTables()

func fixedTables() (lit, dist *codeTable) {
	lit, dist = new(codeTable), new(codeTable)
	lit.build(mustDecoder(fixedLitLengths()), litRootBits, litSlots[:])
	dist.build(mustDecoder(fixedDistLengths()), distRootBits, distSlots[:])
	return lit, dist
}

func mustDecoder(lens []uint8) *huffman.Decoder {
	d, err := huffman.NewDecoder(lens)
	if err != nil {
		panic("flate: fixed code construction failed: " + err.Error())
	}
	return d
}

// dynamicCodes is the storage one dynamic block header decodes into: the
// code-length arrays, the three decoders that validate the codes, and the
// tables the block is decoded with, each rebuilt in place, so a stream of
// dynamic blocks allocates no tables after the first.
type dynamicCodes struct {
	clLens              [numCLSymbols]uint8
	lens                [maxNumLit + maxNumDist]uint8
	cl, lit, dist       huffman.Decoder
	litTable, distTable codeTable
}

// read parses a dynamic block header from br and leaves dc.litTable and
// dc.distTable ready to decode the block.
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
	dc.litTable.build(&dc.lit, litRootBits, litSlots[:])
	dc.distTable.build(&dc.dist, distRootBits, distSlots[:])
	return nil
}

// noDistCodes stands in for the empty distance tree a block of literals may
// declare (RFC 1951 3.2.7): it decodes only to symbols no block may use.
var noDistCodes = [32]uint8{30: 1, 31: 1}

// huffmanBlock decodes a Huffman block until it ends or len(dst) reaches
// limit. The fast loop takes every symbol it can finish with room to spare
// and stops before any other; the careful loop below then takes one, with
// the reader's own refills and every check, so each refusal and each match
// the limit cuts is made there.
func (z *inflater) huffmanBlock(dst []byte, base, limit int) ([]byte, error) {
	br, lit, dist := &z.br, z.lit, z.dist
	for len(dst) < limit {
		// Checked here, not in growAhead: inlined whole into this loop, its
		// body slows the careful loop for callers it never grows.
		if cap(dst)-len(dst) < fastRoom {
			dst = growAhead(dst, limit)
		}
		dst = z.fast(dst, base, limit)
		e, err := lit.decode(br)
		if err != nil {
			return nil, fmt.Errorf("%w: lit/len: %v", ErrCorrupt, err)
		}
		switch e & slotKind {
		case kindLiteral:
			dst = append(dst, byte(e>>16))
		case kindEnd:
			z.inBlock = false
			return dst, nil
		case kindLength:
			length := int(e>>16) + int(br.ReadBits(uint(e>>8&0xff)))
			d, err := dist.decode(br)
			if err != nil {
				return nil, fmt.Errorf("%w: dist: %v", ErrCorrupt, err)
			}
			if d&slotKind != kindDist {
				return nil, fmt.Errorf("%w: dist code %d", ErrCorrupt, d>>16)
			}
			distance := int(d>>16) + int(br.ReadBits(uint(d>>8&0xff)))
			if err := br.Err(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			if distance > len(dst)-base {
				return nil, fmt.Errorf("%w: distance %d beyond output %d", ErrCorrupt, distance, len(dst)-base)
			}
			if length > lz77.MaxMatch {
				return nil, fmt.Errorf("%w: match length %d", ErrCorrupt, length)
			}
			dst = z.match(dst, distance, length, limit)
		default:
			return nil, fmt.Errorf("%w: lit/len symbol %d", ErrCorrupt, e>>16)
		}
	}
	return dst, nil
}

// fastSlop is how far past a match's end its last 8-byte store may reach,
// and fastRoom the spare capacity the fast loop keeps ahead of it for the
// longest match and that slop.
const (
	fastSlop = 8
	fastRoom = lz77.MaxMatch + fastSlop
)

// fast is the inflate inner loop: it decodes symbols while 8 bytes of input
// are buffered, fastRoom bytes of dst's capacity are spare and a longest
// match ends below the limit. It holds the reader's accumulator in locals
// and tops it up to at least 56 bits with one 8-byte load per symbol — a
// length, its extra bits, a distance and its extra bits take at most 48 —
// then resolves a symbol and its extra-bit count and base with one probe.
// It stops before the end of the block, a code or symbol no block may use,
// and a distance beyond the output, consuming nothing of them, and hands
// the reader back its state.
func (z *inflater) fast(dst []byte, base, limit int) []byte {
	acc, n, in, pos := z.br.Bits()
	o := len(dst)
	end := min(cap(dst)-fastRoom, limit-lz77.MaxMatch-1) // the last o with room
	if o > end || n > 63 {
		return dst
	}
	out := dst[:cap(dst)]
	lit, dist := z.lit.slots, z.dist.slots
	litRoot, distRoot := (*[1 << litRootBits]uint32)(lit), (*[1 << distRootBits]uint32)(dist)
	for o <= end && pos <= len(in)-8 {
		acc |= binary.LittleEndian.Uint64(in[pos:]) << (n & 63)
		pos += int(63-n) >> 3 // the whole bytes that fit
		n |= 56
		e := litRoot[acc&(1<<litRootBits-1)]
		if e&slotKind == kindSub {
			e = lit[e>>8+uint32(acc>>litRootBits)&(1<<(e&slotLen)-1)]
		}
		if e&slotKind == kindLiteral {
			acc >>= e & slotLen
			n -= uint(e & slotLen)
			out[o] = byte(e >> 16)
			o++
			continue
		}
		if e&slotKind != kindLength {
			break
		}
		// The match is taken only once its distance is known to be good, so
		// a stop leaves its length symbol unread.
		a, m := acc>>(e&slotLen), n-uint(e&slotLen)
		extra := e >> 8 & 15
		length := int(e>>16) + int(a&(1<<extra-1))
		a, m = a>>extra, m-uint(extra)
		d := distRoot[a&(1<<distRootBits-1)]
		if d&slotKind == kindSub {
			d = dist[d>>8+uint32(a>>distRootBits)&(1<<(d&slotLen)-1)]
		}
		if d&slotKind != kindDist {
			break
		}
		a, m = a>>(d&slotLen), m-uint(d&slotLen)
		extra = d >> 8 & 15
		distance := int(d>>16) + int(a&(1<<extra-1))
		if distance > o-base {
			break
		}
		acc, n = a>>extra, m-uint(extra)
		// Copy 8 bytes at a time from step back. A match closer than 8 is a
		// pattern that repeats every distance bytes: its first bytes go one
		// at a time, until a whole number of repeats of at least 8 bytes
		// lies behind, and the words are copied from that far back.
		i, step := 0, distance
		if distance < 8 {
			step = int(patternStep[distance])
			for k := min(length, step-distance); i < k; i++ {
				out[o+i] = out[o-distance+i]
			}
		}
		for ; i < length; i += 8 {
			binary.LittleEndian.PutUint64(out[o+i:], binary.LittleEndian.Uint64(out[o+i-step:]))
		}
		o += length
	}
	z.br.SetBits(acc, n, pos)
	return dst[:o]
}

// patternStep[d] is the smallest multiple of d that is at least 8.
var patternStep = [8]uint8{1: 8, 2: 8, 3: 9, 4: 8, 5: 10, 6: 12, 7: 14}

// growAhead makes room for the fast loop in dst, whose spare capacity, all
// the loop writes into, has dropped below fastRoom: while the limit is
// further off, dst moves to an array twice as large, so that growth costs
// amortised time as append's does, but never past the limit plus the slop.
// A dst that already holds everything the limit allows is left alone, so
// what grows is the output of a caller with no size hint (Inflate onto nil,
// zlib); the client's blocks and the Reader come with their room.
func growAhead(dst []byte, limit int) []byte {
	room := limit - len(dst)
	if room <= fastRoom {
		return dst
	}
	c := max(2*cap(dst), len(dst)+fastRoom)
	if c-len(dst)-fastSlop > room {
		c = len(dst) + room + fastSlop
	}
	grown := make([]byte, len(dst), c)
	copy(grown, dst)
	return grown
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
