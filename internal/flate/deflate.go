// Package flate implements the DEFLATE compressed format (RFC 1951) and its
// gzip (RFC 1952) and zlib (RFC 1950) containers, built on the lz77 matcher
// and the huffman coder. It is the from-scratch equivalent of the gzip 1.2.4
// / zlib 1.1.3 tools measured by the paper.
package flate

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/bitio"
	"repro/internal/huffman"
	"repro/internal/lz77"
)

// maxTokensPerBlock bounds the token buffer per DEFLATE block, matching
// zlib's 16K-symbol block segmentation: "a block is terminated when the
// compression algorithm determines that it is better to start a new block".
const maxTokensPerBlock = 16384

// maxStoredBlock is the maximum payload of a stored (BTYPE=00) block.
const maxStoredBlock = 65535

// Deflate compresses data to w as a complete DEFLATE stream at the given
// level (1-9). It returns the number of compressed bytes written.
func Deflate(w io.Writer, data []byte, level int) (int, error) {
	m, err := lz77.GetMatcher(level)
	if err != nil {
		return 0, err
	}
	defer lz77.PutMatcher(m)
	cw := countWriter{w: w}
	bw := getLSBWriter(&cw)
	defer putLSBWriter(bw)
	enc := getEncoder(bw, data)
	defer putEncoder(enc)

	m.Tokenize(data, enc.appendToken)
	enc.flushBlock(true)
	if enc.err != nil {
		return cw.n, enc.err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

type countWriter struct {
	w io.Writer
	n int
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

// lsbPool recycles bit writers (and their 4 KiB byte buffers) across calls.
var lsbPool = sync.Pool{New: func() any { return bitio.NewLSBWriter(nil) }}

func getLSBWriter(w io.Writer) *bitio.LSBWriter {
	bw := lsbPool.Get().(*bitio.LSBWriter)
	bw.Reset(w)
	return bw
}

func putLSBWriter(bw *bitio.LSBWriter) { lsbPool.Put(bw) }

// blockEncoder accumulates tokens and emits DEFLATE blocks, choosing
// stored / fixed / dynamic per block by exact cost comparison. All working
// state — token buffer, frequency and length arrays, packed code tables —
// is embedded so a pooled encoder runs the steady state without allocating.
type blockEncoder struct {
	bw         *bitio.LSBWriter
	data       []byte
	tokens     []lz77.Token
	inputStart int // data offset covered by the pending tokens
	inputEnd   int
	err        error

	litFreq  [maxNumLit]int
	distFreq [maxNumDist]int
	litLens  [maxNumLit]uint8
	distLens [maxNumDist]uint8
	clFreq   [numCLSymbols]int
	clLens   [numCLSymbols]uint8

	codes   [maxNumLit]uint32 // canonical-code scratch, reused per alphabet
	litEnc  [maxNumLit]uint32 // packed reversed codes (dynamic blocks)
	distEnc [maxNumDist]uint32
	clEnc   [numCLSymbols]uint32

	allLens [maxNumLit + maxNumDist]uint8 // lit+dist lengths for the CL RLE
	clSyms  []clSym
	nlit    int
	ndist   int
	hclen   int
}

var encoderPool = sync.Pool{New: func() any {
	return &blockEncoder{tokens: make([]lz77.Token, 0, maxTokensPerBlock)}
}}

// getEncoder returns a pooled encoder bound to bw and data. Pair with
// putEncoder.
func getEncoder(bw *bitio.LSBWriter, data []byte) *blockEncoder {
	e := encoderPool.Get().(*blockEncoder)
	e.reset(bw, data)
	return e
}

func putEncoder(e *blockEncoder) {
	e.bw = nil
	e.data = nil
	encoderPool.Put(e)
}

// reset rebinds the encoder to a new output stream and input buffer. The
// token buffer and code tables are retained; per-block state is cleared by
// flushBlock itself.
func (e *blockEncoder) reset(bw *bitio.LSBWriter, data []byte) {
	e.bw = bw
	e.data = data
	e.tokens = e.tokens[:0]
	e.inputStart = 0
	e.inputEnd = 0
	e.err = nil
}

// appendToken is the Tokenize sink: it accumulates tokens and flushes a
// non-final block whenever the zlib block budget fills.
func (e *blockEncoder) appendToken(t lz77.Token) {
	e.tokens = append(e.tokens, t)
	e.inputEnd += t.Advance()
	if len(e.tokens) >= maxTokensPerBlock {
		e.flushBlock(false)
	}
}

// buildCodeLengths builds length-limited Huffman code lengths; a package
// variable so tests can inject failures and exercise the fixed-tree
// fallback below.
var buildCodeLengths = huffman.BuildLengthsInto

func (e *blockEncoder) flushBlock(final bool) {
	if e.err != nil {
		return
	}
	if len(e.tokens) == 0 && !final {
		return
	}

	litFreq := e.litFreq[:]
	distFreq := e.distFreq[:]
	clear(litFreq)
	clear(distFreq)
	extraBits := 0
	for _, t := range e.tokens {
		if t.IsLiteral() {
			litFreq[t.Lit]++
			continue
		}
		le := lengthCodes[t.Len]
		litFreq[le.code]++
		extraBits += int(le.extra)
		dc := distCode(int(t.Dist))
		distFreq[dc]++
		extraBits += int(distTable[dc].extra)
	}
	litFreq[endBlockMarker]++

	// Dynamic-tree construction can fail only on inputs the DEFLATE
	// alphabets cannot produce, but the format always offers the fixed
	// trees — so any failure here downgrades the block instead of killing
	// the stream.
	dynOK := true
	if err := buildCodeLengths(e.litLens[:], litFreq, maxCodeBits); err != nil {
		dynOK = false
	}
	if dynOK {
		if err := buildCodeLengths(e.distLens[:], distFreq, maxCodeBits); err != nil {
			dynOK = false
		}
	}
	header := 0
	if dynOK {
		// DEFLATE requires at least one distance code length even if no
		// matches occurred; give code 0 a dummy 1-bit code.
		hasDist := false
		for _, l := range e.distLens {
			if l > 0 {
				hasDist = true
				break
			}
		}
		if !hasDist {
			e.distLens[0] = 1
		}
		header, dynOK = e.buildDynamicHeader()
	}

	// Sentinel cost for an unavailable dynamic block: large enough that
	// fixed (or a small stored block) always wins, small enough that the
	// stored-vs-dynamic comparison below stays meaningful.
	dynCost := 1 << 30
	if dynOK {
		dynCost = header + extraBits
		for s, f := range litFreq {
			dynCost += f * int(e.litLens[s])
		}
		for s, f := range distFreq {
			dynCost += f * int(e.distLens[s])
		}
	}

	fixedCost := extraBits
	for s, f := range litFreq {
		fixedCost += f * int(fixedLitEnc[s]>>packedLenShift)
	}
	for s, f := range distFreq {
		fixedCost += f * int(fixedDistEnc[s]>>packedLenShift)
	}

	inputLen := e.inputEnd - e.inputStart
	storedCost := 1 << 62
	if inputLen <= maxStoredBlock {
		// 3 header bits + up-to-7 alignment + 32 bits LEN/NLEN + payload.
		storedCost = 3 + 7 + 32 + 8*inputLen
	}

	switch {
	case storedCost <= dynCost+3 && storedCost <= fixedCost+3:
		e.writeStored(final)
	case fixedCost <= dynCost:
		e.writeHuffman(final, 1, fixedLitEnc[:], fixedDistEnc[:])
	default:
		if err := packEnc(e.litEnc[:], e.codes[:], e.litLens[:]); err != nil {
			e.err = err
			return
		}
		if err := packEnc(e.distEnc[:], e.codes[:], e.distLens[:]); err != nil {
			e.err = err
			return
		}
		e.writeHuffman(final, 2, e.litEnc[:], e.distEnc[:])
	}

	e.tokens = e.tokens[:0]
	e.inputStart = e.inputEnd
}

// clSym is one symbol of the code-length (CL) alphabet stream: the symbol,
// its extra-bit payload and the extra-bit count.
type clSym struct {
	sym   int
	extra int
	bits  uint8
}

// buildDynamicHeader computes the dynamic header cost in bits from
// e.litLens/e.distLens, leaving the CL code, symbol stream and the
// nlit/ndist/hclen counts on the encoder for writeHuffman. ok=false means
// the dynamic header could not be built and the caller must fall back to
// the fixed trees (the sentinel-cost path); the stream itself stays valid.
func (e *blockEncoder) buildDynamicHeader() (bits int, ok bool) {
	nlit := maxNumLit
	for nlit > 257 && e.litLens[nlit-1] == 0 {
		nlit--
	}
	ndist := maxNumDist
	for ndist > 1 && e.distLens[ndist-1] == 0 {
		ndist--
	}
	all := append(e.allLens[:0], e.litLens[:nlit]...)
	all = append(all, e.distLens[:ndist]...)

	e.clSyms = runLengthEncode(e.clSyms[:0], all)
	clFreq := e.clFreq[:]
	clear(clFreq)
	for _, s := range e.clSyms {
		clFreq[s.sym]++
	}
	if err := buildCodeLengths(e.clLens[:], clFreq, maxCLCodeBits); err != nil {
		// Cannot happen (19 symbols always fit 7 bits), but the format
		// guarantees the fixed trees: report dynamic as unavailable
		// instead of erroring the stream.
		return 0, false
	}
	hclen := numCLSymbols
	for hclen > 4 && e.clLens[clOrder[hclen-1]] == 0 {
		hclen--
	}
	e.nlit, e.ndist, e.hclen = nlit, ndist, hclen
	bits = 5 + 5 + 4 + 3*hclen
	for _, s := range e.clSyms {
		bits += int(e.clLens[s.sym]) + int(s.bits)
	}
	return bits, true
}

// runLengthEncode appends the CL-alphabet symbol stream for a code-length
// vector to dst: 0..15 literal lengths, 16 repeat-previous (3-6, 2 extra
// bits), 17 zero-run (3-10, 3 extra), 18 zero-run (11-138, 7 extra).
func runLengthEncode(dst []clSym, lens []uint8) []clSym {
	out := dst
	for i := 0; i < len(lens); {
		v := lens[i]
		j := i + 1
		for j < len(lens) && lens[j] == v {
			j++
		}
		run := j - i
		if v == 0 {
			for run >= 11 {
				n := run
				if n > 138 {
					n = 138
				}
				out = append(out, clSym{sym: 18, extra: n - 11, bits: 7})
				run -= n
			}
			if run >= 3 {
				out = append(out, clSym{sym: 17, extra: run - 3, bits: 3})
				run = 0
			}
			for ; run > 0; run-- {
				out = append(out, clSym{sym: 0})
			}
		} else {
			out = append(out, clSym{sym: int(v)})
			run--
			for run >= 3 {
				n := run
				if n > 6 {
					n = 6
				}
				out = append(out, clSym{sym: 16, extra: n - 3, bits: 2})
				run -= n
			}
			for ; run > 0; run-- {
				out = append(out, clSym{sym: int(v)})
			}
		}
		i = j
	}
	return out
}

func (e *blockEncoder) writeStored(final bool) {
	chunk := e.data[e.inputStart:e.inputEnd]
	for first := true; first || len(chunk) > 0; first = false {
		part := chunk
		if len(part) > maxStoredBlock {
			part = part[:maxStoredBlock]
		}
		chunk = chunk[len(part):]
		bfinal := uint64(0)
		if final && len(chunk) == 0 {
			bfinal = 1
		}
		e.bw.WriteBits(bfinal, 1)
		e.bw.WriteBits(0, 2) // BTYPE=00
		e.bw.Align()
		n := uint64(len(part))
		e.bw.WriteBits(n, 16)
		e.bw.WriteBits(^n&0xffff, 16)
		e.bw.WriteBytes(part)
	}
	if e.bw.Err() != nil {
		e.err = e.bw.Err()
	}
}

// writeHuffman emits the pending tokens as one Huffman block using the
// packed code tables (fixed or dynamic). For btype 2 the dynamic header is
// written from the state buildDynamicHeader left on the encoder. Each
// symbol-plus-extra-bits pair goes out in a single WriteBits call: at most
// 15+5 bits on the lit/len side and 15+13 on the distance side, both well
// under the accumulator limit.
func (e *blockEncoder) writeHuffman(final bool, btype int, litEnc, distEnc []uint32) {
	bfinal := uint64(0)
	if final {
		bfinal = 1
	}
	e.bw.WriteBits(bfinal, 1)
	e.bw.WriteBits(uint64(btype), 2)

	if btype == 2 {
		e.bw.WriteBits(uint64(e.nlit-257), 5)
		e.bw.WriteBits(uint64(e.ndist-1), 5)
		e.bw.WriteBits(uint64(e.hclen-4), 4)
		for i := 0; i < e.hclen; i++ {
			e.bw.WriteBits(uint64(e.clLens[clOrder[i]]), 3)
		}
		if err := packEnc(e.clEnc[:], e.codes[:], e.clLens[:]); err != nil {
			e.err = err
			return
		}
		for _, s := range e.clSyms {
			ec := e.clEnc[s.sym]
			n := uint(ec >> packedLenShift)
			v := uint64(ec & (1<<packedLenShift - 1))
			if s.bits > 0 {
				v |= uint64(s.extra) << n
				n += uint(s.bits)
			}
			e.bw.WriteBits(v, n)
		}
	}

	for _, t := range e.tokens {
		if t.IsLiteral() {
			ec := litEnc[t.Lit]
			e.bw.WriteBits(uint64(ec&(1<<packedLenShift-1)), uint(ec>>packedLenShift))
			continue
		}
		le := lengthCodes[t.Len]
		ec := litEnc[le.code]
		n := uint(ec >> packedLenShift)
		v := uint64(ec&(1<<packedLenShift-1)) | uint64(t.Len-le.base)<<n
		n += uint(le.extra)
		e.bw.WriteBits(v, n)
		dc := distCode(int(t.Dist))
		de := distTable[dc]
		ec = distEnc[dc]
		n = uint(ec >> packedLenShift)
		v = uint64(ec&(1<<packedLenShift-1)) | uint64(t.Dist-de.base)<<n
		n += uint(de.extra)
		e.bw.WriteBits(v, n)
	}
	ec := litEnc[endBlockMarker]
	e.bw.WriteBits(uint64(ec&(1<<packedLenShift-1)), uint(ec>>packedLenShift))
	if e.bw.Err() != nil {
		e.err = e.bw.Err()
	}
}

// deflateSizeHint estimates output capacity for compressing n input bytes:
// half the input (typical text compresses well past that) plus headroom for
// the incompressible case's stored-block framing on small inputs.
func deflateSizeHint(n int) int {
	return n/2 + 64
}

type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

var _ io.Writer = (*sliceWriter)(nil)

// validateLevel reports an error for levels outside 1..9.
func validateLevel(level int) error {
	if level < 1 || level > 9 {
		return fmt.Errorf("flate: level %d out of range 1..9", level)
	}
	return nil
}
