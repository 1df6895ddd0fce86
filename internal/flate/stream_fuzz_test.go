package flate

// The package's one inflater is used two ways: Inflate runs it once to the
// end of a block held in memory, straight into the caller's slice; the
// Reader resumes it a Read at a time over a stream of any length, in
// constant memory. FuzzStreamReader holds the two uses to each other, and
// both to the standard library, on arbitrary bytes.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitio"
	"repro/internal/checksum"
)

const (
	// streamFuzzLimit is the most output one input may decode to; past it
	// every decoder counts as refusing.
	streamFuzzLimit = 1 << 20
	// streamFuzzAllocBound is what the Reader's three passes over one input
	// may allocate in total, the output they collect included.
	streamFuzzAllocBound = 16 << 20
)

var errTooLong = errors.New("output exceeds streamFuzzLimit")

// readMember decodes r in reads of readSize bytes. It returns what came
// out and nil for a stream that ended cleanly within streamFuzzLimit.
func readMember(r io.Reader, readSize int) ([]byte, error) {
	var out []byte
	buf := make([]byte, readSize)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		switch {
		case len(out) > streamFuzzLimit:
			return out, errTooLong
		case err == io.EOF:
			return out, nil
		case err != nil:
			return out, err
		}
	}
}

// stdlibMember decodes data as exactly one gzip member with compress/gzip.
func stdlibMember(data []byte) ([]byte, error) {
	src := bytes.NewReader(data) // an io.ByteReader: gzip reads not a byte past the member
	zr, err := gzip.NewReader(src)
	if err != nil {
		return nil, err
	}
	zr.Multistream(false)
	out, err := readMember(zr, 4096)
	if err == nil && src.Len() > 0 {
		err = errors.New("bytes after the member")
	}
	return out, err
}

// streamSeeds are gzip streams built here, named for what they exercise.
func streamSeeds(tb testing.TB) map[string][]byte {
	oneShot := func(data []byte, wantType byte) []byte {
		comp, err := GzipCompress(data, 9)
		if err != nil {
			tb.Fatal(err)
		}
		if got := comp[gzipHdrLen] >> 1 & 3; got != wantType {
			tb.Fatalf("seed of %d bytes opens with block type %d, meant %d", len(data), got, wantType)
		}
		return comp
	}
	noise := make([]byte, 3000)
	rand.New(rand.NewSource(19)).Read(noise)
	text := []byte(strings.Repeat("two inflaters, one format, the same answer. ", 200))

	var segmented bytes.Buffer
	zw, err := NewWriter(&segmented, 6)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 3; i++ { // three segments, each its own run of blocks
		_, _ = zw.Write(text[i*1000 : (i+1)*1000])
		if err := zw.flushSegment(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}

	var withHeader bytes.Buffer
	sw := gzip.NewWriter(&withHeader)
	sw.Header.Name, sw.Header.Comment, sw.Header.Extra = "file.txt", "a comment", []byte{'x', 'y', 2, 0, 7, 7}
	_, _ = sw.Write(text[:500])
	if err := sw.Close(); err != nil {
		tb.Fatal(err)
	}

	dynamic := oneShot(text, 2)
	// A header that announces a CRC of itself, and keeps the promise.
	hcrc := []byte{gzipID1, gzipID2, gzipCM, 1<<1 | 1<<3 /* FHCRC, FNAME */, 0, 0, 0, 0, 0, gzipOSUnix, 'n', 0}
	hcrc = binary.LittleEndian.AppendUint16(hcrc, uint16(checksum.CRC32(hcrc)))
	badCRC := bytes.Clone(dynamic)
	badCRC[len(badCRC)-gzipTrailLen] ^= 0x40
	return map[string][]byte{
		"stored":             oneShot(noise, 0),
		"fixed":              oneShot([]byte("hello, hello"), 1),
		"dynamic":            dynamic,
		"empty":              oneShot(nil, 1),
		"writer-segments":    segmented.Bytes(),
		"fextra-fname":       withHeader.Bytes(),
		"truncated-trailer":  dynamic[:len(dynamic)-3],
		"truncated-body":     dynamic[:len(dynamic)/2],
		"bad-crc":            badCRC,
		"trailing-byte":      append(bytes.Clone(dynamic), 0),
		"second-member":      append(bytes.Clone(dynamic), dynamic...),
		"gap-before-trailer": slices.Insert(bytes.Clone(dynamic), len(dynamic)-gzipTrailLen, 0),
		"good-header-crc":    append(hcrc, dynamic[gzipHdrLen:]...),
		"bad-header-crc":     append([]byte{gzipID1, gzipID2, gzipCM, 1 << 1 /* FHCRC */, 0, 0, 0, 0, 0, 3, 0xff, 0xff}, dynamic[gzipHdrLen:]...),
		"no-dist-codes":      literalsOnly(0), // legal: "aaa"
		"one-dist-code":      literalsOnly(1),
		"lone-2-bit-code":    literalsOnly(2), // incomplete: refused
	}
}

// literalsOnly is "aaa" as one dynamic block whose distance tree is a
// single code of distLen bits, or no code at all.
func literalsOnly(distLen int) []byte {
	var body bytes.Buffer
	bw := bitio.NewLSBWriter(&body)
	code := func(c uint64, n int) { // a Huffman code goes out first bit first
		for n--; n >= 0; n-- {
			bw.WriteBits(c>>n&1, 1)
		}
	}
	bw.WriteBits(1, 1)  // BFINAL
	bw.WriteBits(2, 2)  // dynamic
	bw.WriteBits(0, 5)  // 257 lit/len codes
	bw.WriteBits(0, 5)  // 1 distance code
	bw.WriteBits(14, 4) // 18 code-length code lengths: 18 in 1 bit, 0 in 2, 1 and 2 in 3
	for _, sym := range clOrder[:18] {
		bw.WriteBits(map[byte]uint64{18: 1, 0: 2, 1: 3, 2: 3}[sym], 3)
	}
	zeros := func(n int) { code(0, 1); bw.WriteBits(uint64(n-11), 7) }
	length := func(l int) { code([]uint64{2, 6, 7}[l], []int{2, 3, 3}[l]) }
	zeros(97)  // 0..96
	length(1)  // 'a' in one bit
	zeros(138) // 98..235
	zeros(20)  // 236..255
	length(1)  // end of block in one bit
	length(distLen)
	code(0, 1)
	code(0, 1)
	code(0, 1)
	code(1, 1)
	_ = bw.Flush()
	out := append([]byte{gzipID1, gzipID2, gzipCM, 0, 0, 0, 0, 0, 0, gzipOSUnix}, body.Bytes()...)
	out = binary.LittleEndian.AppendUint32(out, checksum.CRC32([]byte("aaa")))
	return binary.LittleEndian.AppendUint32(out, 3)
}

// checkStreamReader is the oracle: the Reader in 1-, 7- and 4096-byte
// reads, GzipDecompress and compress/gzip all return the same bytes for
// data, or all refuse it.
func checkStreamReader(data []byte) error {
	want, wantErr := GzipDecompress(data, streamFuzzLimit)
	std, stdErr := stdlibMember(data)
	if (wantErr != nil) != (stdErr != nil) {
		return fmt.Errorf("GzipDecompress: err %v; compress/gzip: err %v", wantErr, stdErr)
	}
	if wantErr == nil && !bytes.Equal(want, std) {
		return fmt.Errorf("GzipDecompress and compress/gzip decode to different bytes (%d, %d)", len(want), len(std))
	}
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	for _, readSize := range []int{1, 7, 4096} {
		got, err := readMember(NewReader(bytes.NewReader(data)), readSize)
		if (err != nil) != (wantErr != nil) {
			return fmt.Errorf("Reader in %d-byte reads: err %v; GzipDecompress: err %v", readSize, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			return fmt.Errorf("Reader in %d-byte reads decodes to different bytes (%d, %d)", readSize, len(got), len(want))
		}
	}
	runtime.ReadMemStats(&m2)
	if got := m2.TotalAlloc - m1.TotalAlloc; got > streamFuzzAllocBound {
		return fmt.Errorf("reading %d bytes of stream three times allocated %d", len(data), got)
	}
	return nil
}

// TestStreamSeedsAgree runs the oracle over the seeds, and pins which of
// them decode, so that a seed that stops exercising its case is noticed.
func TestStreamSeedsAgree(t *testing.T) {
	decodes := map[string]bool{"stored": true, "fixed": true, "dynamic": true, "empty": true,
		"writer-segments": true, "fextra-fname": true, "good-header-crc": true, "no-dist-codes": true, "one-dist-code": true}
	for name, data := range streamSeeds(t) {
		if err := checkStreamReader(data); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, err := GzipDecompress(data, streamFuzzLimit); (err == nil) != decodes[name] {
			t.Errorf("%s: err %v, want it to decode: %v", name, err, decodes[name])
		}
	}
}

// FuzzStreamReader holds arbitrary bytes to checkStreamReader.
func FuzzStreamReader(f *testing.F) {
	for _, data := range streamSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkStreamReader(data); err != nil {
			t.Fatal(err)
		}
	})
}
