package flate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/bitio"
	"repro/internal/checksum"
	"repro/internal/huffman"
	"repro/internal/lz77"
)

// Writer is a streaming gzip compressor implementing io.WriteCloser.
// Input is buffered into large segments that are each emitted as a run of
// non-final DEFLATE blocks; Close terminates the member with an empty
// final block and the CRC-32/ISIZE trailer. Matches do not cross segment
// boundaries (the paper's block-by-block zlib behaves the same way), which
// costs a fraction of a percent of factor on the 1 MB segment size.
type Writer struct {
	w       io.Writer
	bw      *bitio.LSBWriter
	matcher *lz77.Matcher
	enc     *blockEncoder // reused across segments; created on first flush
	level   int

	buf     []byte
	crc     uint32
	in      uint32
	started bool
	closed  bool
	err     error
}

// writerSegment is the streaming compressor's input buffer size.
const writerSegment = 1 << 20

// NewWriter returns a streaming gzip writer at the given level (1-9).
func NewWriter(w io.Writer, level int) (*Writer, error) {
	if err := validateLevel(level); err != nil {
		return nil, err
	}
	m, err := lz77.GetMatcher(level)
	if err != nil {
		return nil, err
	}
	return &Writer{
		w:       w,
		matcher: m,
		level:   level,
		buf:     make([]byte, 0, writerSegment),
	}, nil
}

var _ io.WriteCloser = (*Writer)(nil)

// Write buffers p, compressing and emitting full segments.
func (zw *Writer) Write(p []byte) (int, error) {
	if zw.err != nil {
		return 0, zw.err
	}
	if zw.closed {
		return 0, errors.New("flate: write after Close")
	}
	total := len(p)
	for len(p) > 0 {
		space := writerSegment - len(zw.buf)
		n := len(p)
		if n > space {
			n = space
		}
		zw.buf = append(zw.buf, p[:n]...)
		p = p[n:]
		if len(zw.buf) == writerSegment {
			if err := zw.flushSegment(); err != nil {
				return total - len(p), err
			}
		}
	}
	return total, nil
}

func (zw *Writer) ensureHeader() error {
	if zw.started {
		return nil
	}
	zw.started = true
	hdr := make([]byte, gzipHdrLen)
	hdr[0], hdr[1], hdr[2] = gzipID1, gzipID2, gzipCM
	switch zw.level {
	case 9:
		hdr[8] = gzipXFLBest
	case 1:
		hdr[8] = gzipXFLFast
	}
	hdr[9] = gzipOSUnix
	if _, err := zw.w.Write(hdr); err != nil {
		zw.err = err
		return err
	}
	zw.bw = bitio.NewLSBWriter(zw.w)
	return nil
}

// flushSegment compresses the buffered bytes as non-final blocks.
func (zw *Writer) flushSegment() error {
	if err := zw.ensureHeader(); err != nil {
		return err
	}
	if len(zw.buf) == 0 {
		return nil
	}
	zw.crc = checksum.UpdateCRC32(zw.crc, zw.buf)
	zw.in += uint32(len(zw.buf))
	if zw.enc == nil {
		zw.enc = getEncoder(zw.bw, zw.buf)
	} else {
		zw.enc.reset(zw.bw, zw.buf)
	}
	enc := zw.enc
	zw.matcher.Tokenize(zw.buf, enc.appendToken)
	enc.flushBlock(false) // never final: Close ends the stream
	if enc.err != nil {
		zw.err = enc.err
		return enc.err
	}
	zw.buf = zw.buf[:0]
	return zw.bw.Err()
}

// Flush compresses everything buffered so far and pushes it downstream (a
// partial segment is emitted; matches will not span into later writes).
func (zw *Writer) Flush() error {
	if zw.err != nil {
		return zw.err
	}
	if err := zw.flushSegment(); err != nil {
		return err
	}
	// bitio buffers whole bytes; leave sub-byte state in place (DEFLATE
	// has no alignment requirement between blocks).
	return nil
}

// Close flushes, writes the empty final block and the gzip trailer. The
// matcher and encoder go back to their pools; the Writer must not be used
// afterwards.
func (zw *Writer) Close() error {
	if zw.closed {
		return zw.err
	}
	zw.closed = true
	defer func() {
		lz77.PutMatcher(zw.matcher)
		zw.matcher = nil
		if zw.enc != nil {
			putEncoder(zw.enc)
			zw.enc = nil
		}
	}()
	if zw.err != nil {
		return zw.err
	}
	if err := zw.flushSegment(); err != nil {
		return err
	}
	if err := zw.ensureHeader(); err != nil { // empty input: header only
		return err
	}
	// Final empty stored block.
	zw.bw.WriteBits(1, 1)
	zw.bw.WriteBits(0, 2)
	zw.bw.Align()
	zw.bw.WriteBits(0, 16)
	zw.bw.WriteBits(0xffff, 16)
	if err := zw.bw.Flush(); err != nil {
		zw.err = err
		return err
	}
	var trailer [gzipTrailLen]byte
	binary.LittleEndian.PutUint32(trailer[0:4], zw.crc)
	binary.LittleEndian.PutUint32(trailer[4:8], zw.in)
	if _, err := zw.w.Write(trailer[:]); err != nil {
		zw.err = err
	}
	return zw.err
}

// Reader is a streaming gzip decompressor implementing io.Reader. It
// decodes incrementally — pausing mid-block once its output buffer fills —
// so arbitrarily large members decompress in constant memory, and it
// verifies the CRC-32/ISIZE trailer at EOF.
type Reader struct {
	br *bitio.LSBReader

	// Current block state.
	inBlock   bool
	stored    int // remaining stored-block bytes; -1 when in huffman block
	final     bool
	litDec    *huffman.Decoder
	distDec   *huffman.Decoder
	copyLen   int // remaining bytes of an in-progress match
	copyDist  int
	headerOK  bool
	done      bool
	errSticky error

	codes dynamicCodes // what litDec/distDec point into during a dynamic block

	window  []byte // last <=32 KB of produced output
	pending []byte // decoded but not yet Read
	crc     uint32
	out     uint32
}

var _ io.Reader = (*Reader)(nil)

// NewReader returns a streaming gzip reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bitio.NewLSBReader(r), stored: -1}
}

// emit appends one byte to pending, the window and the checksum state.
func (zr *Reader) emit(b byte) {
	zr.pending = append(zr.pending, b)
	zr.window = append(zr.window, b)
	if len(zr.window) > 2*lz77.WindowSize {
		zr.trimWindow()
	}
}

// trimWindow drops all but the last WindowSize bytes of history.
func (zr *Reader) trimWindow() {
	if len(zr.window) > 2*lz77.WindowSize {
		zr.window = append(zr.window[:0], zr.window[len(zr.window)-lz77.WindowSize:]...)
	}
}

// fill decodes until at least target bytes are pending, EOF, or error.
func (zr *Reader) fill(target int) error {
	if !zr.headerOK {
		var b [1]byte
		if err := skipGzipHeader(func() (byte, error) {
			err := zr.br.ReadBytes(b[:])
			return b[0], err
		}); err != nil {
			return err
		}
		zr.headerOK = true
	}
	for len(zr.pending) < target && !zr.done {
		if err := zr.step(target); err != nil {
			return err
		}
	}
	return nil
}

// step makes one unit of decoding progress.
func (zr *Reader) step(target int) error {
	// Finish an in-progress match first. The copy runs in chunks against
	// a fixed start offset, so an overlapping match (dist < len) doubles
	// its span each append instead of moving one byte at a time.
	if zr.copyLen > 0 {
		if zr.copyDist > len(zr.window) {
			return fmt.Errorf("%w: distance beyond window", ErrCorrupt)
		}
		n := zr.copyLen
		if budget := target + lz77.MaxMatch - len(zr.pending); n > budget {
			n = budget
		}
		start := len(zr.window) - zr.copyDist
		for n > 0 {
			chunk := len(zr.window) - start
			if chunk > n {
				chunk = n
			}
			zr.pending = append(zr.pending, zr.window[start:start+chunk]...)
			zr.window = append(zr.window, zr.window[start:start+chunk]...)
			zr.copyLen -= chunk
			n -= chunk
		}
		zr.trimWindow()
		return nil
	}
	if !zr.inBlock {
		final := zr.br.ReadBits(1)
		btype := zr.br.ReadBits(2)
		if err := zr.br.Err(); err != nil {
			return fmt.Errorf("%w: block header: %v", ErrCorrupt, err)
		}
		zr.final = final == 1
		zr.inBlock = true
		switch btype {
		case 0:
			zr.br.Align()
			n := zr.br.ReadBits(16)
			nlen := zr.br.ReadBits(16)
			if err := zr.br.Err(); err != nil {
				return fmt.Errorf("%w: stored header: %v", ErrCorrupt, err)
			}
			if n != ^nlen&0xffff {
				return fmt.Errorf("%w: stored LEN/NLEN", ErrCorrupt)
			}
			zr.stored = int(n)
		case 1:
			zr.stored = -1
			zr.litDec, zr.distDec = fixedLit, fixedDist
		case 2:
			zr.stored = -1
			if err := zr.codes.read(zr.br); err != nil {
				return err
			}
			zr.litDec, zr.distDec = &zr.codes.lit, &zr.codes.dist
		default:
			return fmt.Errorf("%w: reserved block type", ErrCorrupt)
		}
		return nil
	}
	if zr.stored >= 0 {
		// Stored block: copy bytes through a stack scratch in chunks.
		var buf [512]byte
		for zr.stored > 0 && len(zr.pending) < target {
			n := zr.stored
			if n > len(buf) {
				n = len(buf)
			}
			if room := target - len(zr.pending); n > room {
				n = room
			}
			if err := zr.br.ReadBytes(buf[:n]); err != nil {
				return fmt.Errorf("%w: stored payload: %v", ErrCorrupt, err)
			}
			zr.pending = append(zr.pending, buf[:n]...)
			zr.window = append(zr.window, buf[:n]...)
			zr.stored -= n
		}
		zr.trimWindow()
		if zr.stored == 0 {
			zr.endBlock()
		}
		return nil
	}
	// Huffman block: decode symbols until the block ends or enough output.
	for len(zr.pending) < target {
		sym, err := zr.litDec.DecodeLSB(zr.br)
		if err != nil {
			return fmt.Errorf("%w: lit/len symbol", ErrCorrupt)
		}
		switch {
		case sym < 256:
			zr.emit(byte(sym))
		case sym == endBlockMarker:
			zr.endBlock()
			return nil
		case sym <= 285:
			le := lengthTable[sym-257]
			length := int(le.base) + int(zr.br.ReadBits(uint(le.extra)))
			dsym, err := zr.distDec.DecodeLSB(zr.br)
			if err != nil || dsym >= maxNumDist {
				return fmt.Errorf("%w: distance symbol", ErrCorrupt)
			}
			de := distTable[dsym]
			dist := int(de.base) + int(zr.br.ReadBits(uint(de.extra)))
			if err := zr.br.Err(); err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			zr.copyLen, zr.copyDist = length, dist
			return nil
		default:
			return fmt.Errorf("%w: symbol %d", ErrCorrupt, sym)
		}
	}
	return nil
}

func (zr *Reader) endBlock() {
	zr.inBlock = false
	if zr.final {
		zr.done = true
	}
}

// Read implements io.Reader; after the final block it checks the trailer
// and returns io.EOF.
func (zr *Reader) Read(p []byte) (int, error) {
	if zr.errSticky != nil {
		return 0, zr.errSticky
	}
	if len(p) == 0 {
		return 0, nil
	}
	if len(zr.pending) == 0 {
		target := len(p)
		if target > writerSegment {
			target = writerSegment // bound the internal buffer
		}
		if err := zr.fill(target); err != nil {
			zr.errSticky = err
			return 0, err
		}
	}
	if len(zr.pending) > 0 {
		n := copy(p, zr.pending)
		zr.crc = checksum.UpdateCRC32(zr.crc, zr.pending[:n])
		zr.out += uint32(n)
		zr.pending = zr.pending[n:]
		return n, nil
	}
	// Drained and done: verify the trailer once.
	if err := zr.checkTrailer(); err != nil {
		zr.errSticky = err
		return 0, err
	}
	zr.errSticky = io.EOF
	return 0, io.EOF
}

func (zr *Reader) checkTrailer() error {
	zr.br.Align()
	var trailer [gzipTrailLen]byte
	if err := zr.br.ReadBytes(trailer[:]); err != nil {
		return fmt.Errorf("%w: trailer: %v", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(trailer[0:4]) != zr.crc {
		return fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(trailer[4:8]) != zr.out {
		return fmt.Errorf("%w: ISIZE mismatch", ErrCorrupt)
	}
	// One member is the whole stream, as for GzipDecompress: anything behind
	// the trailer is refused rather than silently dropped.
	if zr.br.ReadBytes(trailer[:1]) == nil {
		return fmt.Errorf("%w: data after the gzip trailer", ErrCorrupt)
	}
	return nil
}
