package flate

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitio"
	"repro/internal/checksum"
	"repro/internal/lz77"
)

func streamCompress(t testing.TB, data []byte, level int, chunk int) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		if _, err := zw.Write(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func streamDecompress(t testing.TB, comp []byte, readSize int) []byte {
	t.Helper()
	zr := NewReader(bytes.NewReader(comp))
	var out []byte
	buf := make([]byte, readSize)
	for {
		n, err := zr.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
	}
}

func TestStreamRoundTripVariousChunks(t *testing.T) {
	data := []byte(strings.Repeat("streaming gzip writer and reader round trip test content. ", 40_000))
	for _, writeChunk := range []int{1, 7, 4096, 1 << 20, len(data)} {
		comp := streamCompress(t, data, 6, writeChunk)
		for _, readChunk := range []int{1, 13, 8192, len(data)} {
			got := streamDecompress(t, comp, readChunk)
			if !bytes.Equal(got, data) {
				t.Fatalf("write chunk %d / read chunk %d: mismatch", writeChunk, readChunk)
			}
		}
	}
}

func TestStreamEmptyInput(t *testing.T) {
	comp := streamCompress(t, nil, 9, 1024)
	got := streamDecompress(t, comp, 64)
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestStreamInteropStdlibReadsOurs(t *testing.T) {
	StdReadsOurs(t, "text", "gzip stream", []byte(strings.Repeat("interop with the standard library. ", 30_000)), 9)
}

func TestStreamInteropWeReadStdlib(t *testing.T) {
	OursReadStd(t, "text", "gzip stream", []byte(strings.Repeat("the reverse direction. ", 30_000)), 6)
}

func TestStreamReaderReadsOneShotOutput(t *testing.T) {
	data := []byte(strings.Repeat("one-shot to streaming ", 20_000))
	comp, err := GzipCompress(data, 9)
	if err != nil {
		t.Fatal(err)
	}
	got := streamDecompress(t, comp, 1000)
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
}

func TestStreamOneShotReadsWriterOutput(t *testing.T) {
	data := []byte(strings.Repeat("streaming to one-shot ", 20_000))
	comp := streamCompress(t, data, 9, 64_000)
	got, err := GzipDecompress(comp, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("one-shot decode of streamed output: %v", err)
	}
}

func TestStreamLargeConstantMemory(t *testing.T) {
	// 8 MB of compressible data through 64 kB reads: the reader's window
	// must stay bounded (this test mainly guards against accidental
	// whole-stream buffering regressions — it completes quickly only if
	// decoding is incremental).
	rng := rand.New(rand.NewSource(55))
	data := make([]byte, 8<<20)
	for i := range data {
		data[i] = byte(rng.Intn(6))
	}
	comp := streamCompress(t, data, 1, 1<<20)
	zr := NewReader(bytes.NewReader(comp))
	buf := make([]byte, 64*1024)
	var total int
	for {
		n, err := zr.Read(buf)
		total += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != len(data) {
		t.Fatalf("decoded %d of %d", total, len(data))
	}
}

func TestStreamWriteAfterClose(t *testing.T) {
	zw, err := NewWriter(io.Discard, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write([]byte("x")); err == nil {
		t.Fatal("write after close accepted")
	}
	// Second Close is a no-op.
	if err := zw.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestStreamReaderDetectsCorruption(t *testing.T) {
	data := []byte(strings.Repeat("corruption detection in the streaming reader ", 5000))
	comp := streamCompress(t, data, 9, 1<<20)
	bad := append([]byte{}, comp...)
	bad[len(bad)-6] ^= 0xFF // trailer CRC byte
	zr := NewReader(bytes.NewReader(bad))
	if _, err := io.ReadAll(zr); err == nil {
		t.Fatal("corrupted trailer accepted")
	}
	// Sticky error on subsequent reads.
	if _, err := zr.Read(make([]byte, 1)); err == nil {
		t.Fatal("error not sticky")
	}
}

// TestStreamMatchesAcrossReadBoundaries: wherever a Read's size stops the
// decoder — inside a stored block, part-way through a match, on either side
// of the buffer sliding — the next Read carries on from there, and the
// stream decodes as it does in one run.
func TestStreamMatchesAcrossReadBoundaries(t *testing.T) {
	members := streamSeeds(t)
	corpus := DifferentialCorpus()
	for name, data := range corpus {
		comp, err := GzipCompress(data, 9)
		if err != nil {
			t.Fatal(err)
		}
		members["corpus/"+name] = comp
	}
	for name, comp := range members {
		want, wantErr := GzipDecompress(comp, 0)
		for _, size := range []int{1, 2, 3, 257, 258, 259, 32767, 32768, 32769} {
			got, err := readMember(NewReader(bytes.NewReader(comp)), size)
			if (err != nil) != (wantErr != nil) {
				t.Errorf("%s in %d-byte reads: err %v; in one run: err %v", name, size, err, wantErr)
			} else if err == nil && !bytes.Equal(got, want) {
				t.Errorf("%s in %d-byte reads decodes to different bytes (%d, %d)", name, size, len(got), len(want))
			}
		}
	}

	// A first read sized to stop the decoder at a known place, which is
	// checked, then the rest.
	gz := func(data []byte) []byte {
		comp, err := GzipCompress(data, 9)
		if err != nil {
			t.Fatal(err)
		}
		return comp
	}
	noise := make([]byte, 2*lz77.WindowSize)
	rand.New(rand.NewSource(19)).Read(noise)
	echo := append(noise[:300:300], noise[:300]...)
	farComp, far := windowBackMatch(noise)
	for _, c := range []struct {
		name   string
		comp   []byte
		data   []byte
		first  int
		paused func(zr *Reader) bool
	}{
		{"a stored block", gz(noise[:3000]), noise[:3000], 100,
			func(zr *Reader) bool { return zr.z.inBlock && zr.z.lit == nil && zr.z.stored == 2900 }},
		{"a match", gz(echo), echo, 400,
			func(zr *Reader) bool { return zr.z.copyLen > 0 && zr.z.copyDist == 300 }},
		{"a match that overlaps its own output", gz(corpus["runs"]), corpus["runs"], 10,
			func(zr *Reader) bool { return zr.z.copyLen > 1 && zr.z.copyDist == 1 }},
		{"a full buffer, which the next match reaches the far end of", farComp, far, len(noise),
			func(zr *Reader) bool { return len(zr.buf) == 2*lz77.WindowSize && !zr.z.inBlock }},
	} {
		zr := NewReader(bytes.NewReader(c.comp))
		got := make([]byte, c.first)
		if _, err := io.ReadFull(zr, got); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !c.paused(zr) {
			t.Errorf("%s: %d bytes in, the decoder is not paused there (stored %d, match %d from %d back, buffer %d)",
				c.name, c.first, zr.z.stored, zr.z.copyLen, zr.z.copyDist, len(zr.buf))
		}
		got = append(got, 0)
		if _, err := zr.Read(got[c.first:]); err != nil { // one byte: the least that carries on
			t.Fatalf("%s: %v", c.name, err)
		}
		rest, err := io.ReadAll(zr)
		if err != nil || !bytes.Equal(append(got, rest...), c.data) {
			t.Errorf("%s: resumed to different bytes (err %v)", c.name, err)
		}
	}
}

// windowBackMatch is two windows of bytes in a stored block each, then a
// three-byte match at the longest distance there is: a Reader whose buffer
// is full when it gets there has to have kept the whole of the last window.
// It returns the gzip member and what it decodes to.
func windowBackMatch(twoWindows []byte) (comp, data []byte) {
	var body bytes.Buffer
	bw := bitio.NewLSBWriter(&body)
	for _, window := range [][]byte{twoWindows[:lz77.WindowSize], twoWindows[lz77.WindowSize:]} {
		bw.WriteBits(0, 3) // not final, stored
		bw.Align()
		bw.WriteBits(lz77.WindowSize, 16)
		bw.WriteBits(^uint64(lz77.WindowSize)&0xffff, 16)
		bw.WriteBytes(window)
	}
	bw.WriteBits(1, 1)         // BFINAL
	bw.WriteBits(1, 2)         // fixed codes
	bw.WriteBits(0b1000000, 7) // length code 257 (0000001, first bit first): 3 bytes
	bw.WriteBits(0b10111, 5)   // distance code 29 (11101, first bit first): 24577 and up
	bw.WriteBits(8191, 13)     // 24577 + 8191 = 32768
	bw.WriteBits(0, 7)         // end of block
	_ = bw.Flush()
	data = append(bytes.Clone(twoWindows), twoWindows[lz77.WindowSize:][:3]...)
	hdr := gzipHeader(6)
	return appendGzipTrailer(append(hdr[:], body.Bytes()...), checksum.CRC32(data), uint32(len(data))), data
}

func BenchmarkStreamWriter(b *testing.B) {
	data := []byte(strings.Repeat("streaming writer benchmark content 0123456789\n", 20_000))
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		zw, err := NewWriter(io.Discard, 6)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := zw.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamReader(b *testing.B) {
	data := []byte(strings.Repeat("streaming reader benchmark content 0123456789\n", 20_000))
	comp, err := GzipCompress(data, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readAll(b, comp, 64*1024)
	}
}

// BenchmarkStreamReaderReadSize reads each bench file, gzipped whole as one
// member, through the Reader in 300-byte and 4 KiB reads: the sizes at
// which each fill decodes a small part of the Reader's window.
func BenchmarkStreamReaderReadSize(b *testing.B) {
	for _, f := range benchFiles(b) {
		comp, err := GzipCompress(f.Data, 9)
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range []int{300, 4096} {
			b.Run(fmt.Sprintf("%s/%d", f.Name, size), func(b *testing.B) {
				b.SetBytes(int64(len(f.Data)))
				for i := 0; i < b.N; i++ {
					readAll(b, comp, size)
				}
			})
		}
	}
}

// readAll reads the gzip member comp through a Reader to its end, in reads
// of readSize bytes.
func readAll(b *testing.B, comp []byte, readSize int) {
	zr := NewReader(bytes.NewReader(comp))
	buf := make([]byte, readSize)
	for {
		_, err := zr.Read(buf)
		if err == io.EOF {
			return
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
