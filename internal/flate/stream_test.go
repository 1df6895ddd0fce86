package flate

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/checksum"
	"repro/internal/lz77"
)

// segmentedGzip is data as a gzip member in segments of at most segment
// bytes, each its own run of non-final blocks from the package's encoder
// at level, with no match across a segment's edge, then an empty final
// stored block: the shape of a stream a compressor writes as its input
// arrives.
func segmentedGzip(tb testing.TB, data []byte, level, segment int) []byte {
	tb.Helper()
	hdr := gzipHeader(level)
	enc := encoderPool.Get().(*blockEncoder)
	defer encoderPool.Put(enc)
	enc.reset(hdr[:], nil)
	defer enc.reset(nil, nil)
	m, err := lz77.GetMatcher(level)
	if err != nil {
		tb.Fatal(err)
	}
	defer lz77.PutMatcher(m)
	for off := 0; off < len(data); off += segment {
		seg := data[off:min(off+segment, len(data))]
		enc.data, enc.inputStart, enc.inputEnd = seg, 0, 0
		m.Tokenize(seg, enc.appendToken)
		if enc.flushBlock(false); enc.err != nil {
			tb.Fatal(enc.err)
		}
	}
	bw := &enc.bw
	bw.WriteBits(1, 3) // BFINAL, stored
	bw.Align()
	bw.WriteBits(0xffff<<16, 32) // LEN 0, NLEN
	if err := bw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return appendGzipTrailer(bw.Bytes(), checksum.CRC32(data), uint32(len(data)))
}

func TestStreamEmptyInput(t *testing.T) {
	got, err := GzipDecompressAppend(nil, segmentedGzip(t, nil, 9, 1024), 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %d bytes, err %v", len(got), err)
	}
}

func TestStreamInteropStdlibReadsOurs(t *testing.T) {
	StdReadsOurs(t, "text", "gzip", []byte(strings.Repeat("interop with the standard library. ", 30_000)), 9)
}

func TestStreamInteropWeReadStdlib(t *testing.T) {
	OursReadStd(t, "text", "gzip", []byte(strings.Repeat("the reverse direction. ", 30_000)), 6)
}

func TestStreamOneShotReadsWriterOutput(t *testing.T) {
	data := []byte(strings.Repeat("streaming to one-shot ", 20_000))
	got, err := GzipDecompressAppend(nil, segmentedGzip(t, data, 9, 64_000), 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("one-shot decode of a segmented member: %v", err)
	}
}
