package flate

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/bitio"
	"repro/internal/checksum"
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
	hdr := gzipHeader(zw.level)
	if _, err := zw.w.Write(hdr[:]); err != nil {
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
	if _, err := zw.w.Write(appendGzipTrailer(nil, zw.crc, zw.in)); err != nil {
		zw.err = err
	}
	return zw.err
}

// Reader is a streaming gzip decompressor implementing io.Reader. It runs
// the package's inflater a Read's worth at a time over a buffer it slides —
// at most a window of history, then the bytes decoded and not yet read — so
// arbitrarily large members decompress in constant memory, and it verifies
// the CRC-32/ISIZE trailer at EOF.
type Reader struct {
	z inflater
	// buf is the output: history a match may still reach, then buf[next:],
	// not yet read. It holds at most two windows, and its capacity is those
	// and the fast loop's slop from the start, so it never moves and every
	// fill has the spare capacity the fast loop writes into.
	buf      []byte
	next     int
	headerOK bool
	crc      uint32
	out      uint32
	err      error // sticky; io.EOF once the trailer has been verified
}

var _ io.Reader = (*Reader)(nil)

// NewReader returns a streaming gzip reader over r.
func NewReader(r io.Reader) *Reader {
	zr := &Reader{buf: make([]byte, 0, 2*lz77.WindowSize+fastSlop)}
	zr.z.reset(r)
	return zr
}

// Read implements io.Reader; after the final block it checks the trailer
// and returns io.EOF.
func (zr *Reader) Read(p []byte) (int, error) {
	if zr.err != nil {
		return 0, zr.err
	}
	if len(p) == 0 {
		return 0, nil
	}
	if zr.next == len(zr.buf) {
		if zr.err = zr.fill(len(p)); zr.err != nil {
			return 0, zr.err
		}
	}
	n := copy(p, zr.buf[zr.next:])
	zr.crc = checksum.UpdateCRC32(zr.crc, p[:n])
	zr.out += uint32(n)
	zr.next += n
	return n, nil
}

// fill decodes up to want more bytes onto buf, everything in which has been
// read; at the end of the member it checks the trailer and returns io.EOF.
func (zr *Reader) fill(want int) error {
	br := &zr.z.br
	if !zr.headerOK {
		var b [1]byte
		if err := skipGzipHeader(func() (byte, error) {
			err := br.ReadBytes(b[:])
			return b[0], err
		}); err != nil {
			return err
		}
		zr.headerOK = true
	}
	if len(zr.buf) == 2*lz77.WindowSize { // full: slide the last window to the front
		zr.buf = append(zr.buf[:0], zr.buf[lz77.WindowSize:]...)
		zr.next = len(zr.buf)
	}
	buf, done, err := zr.z.run(zr.buf, 0, min(len(zr.buf)+want, 2*lz77.WindowSize))
	if err != nil {
		return err
	}
	zr.buf = buf
	if !done || zr.next < len(buf) {
		return nil
	}
	br.Align()
	var trailer [gzipTrailLen]byte
	if err := br.ReadBytes(trailer[:]); err != nil {
		return fmt.Errorf("%w: trailer: %v", ErrCorrupt, err)
	}
	if err := checkGzipTrailer(trailer[:], zr.crc, zr.out); err != nil {
		return err
	}
	// One member is the whole stream, as for GzipDecompress: anything behind
	// the trailer is refused rather than silently dropped.
	if br.ReadBytes(trailer[:1]) == nil {
		return fmt.Errorf("%w: data after the gzip trailer", ErrCorrupt)
	}
	return io.EOF
}
