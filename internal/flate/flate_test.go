package flate

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// corpusSamples exercises the classes of data the paper's Table 2 covers.
func corpusSamples() map[string][]byte {
	rng := rand.New(rand.NewSource(11))
	random := make([]byte, 60000)
	rng.Read(random)
	runs := bytes.Repeat([]byte{'x'}, 70000)
	text := []byte(strings.Repeat("The energy model estimates compressed downloading cost. ", 1500))
	var structured []byte
	for i := 0; i < 3000; i++ {
		structured = append(structured, []byte("<item id=\"0\"><name>value</name></item>\n")...)
	}
	allBytes := make([]byte, 256*20)
	for i := range allBytes {
		allBytes[i] = byte(i)
	}
	return map[string][]byte{
		"empty":      nil,
		"one":        {42},
		"short":      []byte("abc"),
		"text":       text,
		"structured": structured,
		"random":     random,
		"runs":       runs,
		"allBytes":   allBytes,
	}
}

func TestDeflateInflateRoundTrip(t *testing.T) {
	for name, data := range corpusSamples() {
		for _, level := range []int{1, 6, 9} {
			comp, err := CompressBytes(data, level)
			if err != nil {
				t.Fatalf("%s level %d: %v", name, level, err)
			}
			got, err := DecompressBytes(comp)
			if err != nil {
				t.Fatalf("%s level %d: inflate: %v", name, level, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s level %d: round trip mismatch", name, level)
			}
		}
	}
}

func TestDeflateCompressesText(t *testing.T) {
	data := corpusSamples()["text"]
	comp, err := CompressBytes(data, 9)
	if err != nil {
		t.Fatal(err)
	}
	if f := float64(len(data)) / float64(len(comp)); f < 5 {
		t.Errorf("text compression factor %.2f, want > 5", f)
	}
}

func TestDeflateRandomNearStored(t *testing.T) {
	data := corpusSamples()["random"]
	comp, err := CompressBytes(data, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Stored-block fallback bounds the expansion to ~5 bytes per 64 KB.
	if len(comp) > len(data)+len(data)/200+64 {
		t.Errorf("random data expanded: %d -> %d", len(data), len(comp))
	}
}

// Interop: the stdlib must inflate our output, and we must inflate stdlib's.
func TestInteropStdlibInflatesOurs(t *testing.T) {
	for name, data := range corpusSamples() {
		StdReadsOurs(t, name, "deflate", data, 9)
	}
}

func TestInteropWeInflateStdlib(t *testing.T) {
	for name, data := range corpusSamples() {
		OursReadStd(t, name, "deflate", data, 9)
	}
}

func TestGzipRoundTrip(t *testing.T) {
	for name, data := range corpusSamples() {
		StdReadsOurs(t, name, "gzip", data, 9)
	}
}

func TestGzipInteropStdlib(t *testing.T) {
	StdReadsOurs(t, "structured", "gzip", corpusSamples()["structured"], 6)
	OursReadStd(t, "structured", "gzip", corpusSamples()["structured"], 6)
}

func TestZlibRoundTripAndInterop(t *testing.T) {
	StdReadsOurs(t, "text", "zlib", corpusSamples()["text"], 9)
}

func TestGzipDetectsCorruption(t *testing.T) {
	data := corpusSamples()["text"]
	comp, err := GzipCompress(data, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: either the inflate fails or the CRC must catch it.
	bad := append([]byte{}, comp...)
	bad[len(bad)/2] ^= 0x40
	if _, err := GzipDecompress(bad, 0); err == nil {
		t.Fatal("corrupted gzip stream decoded without error")
	}
	// Truncate.
	if _, err := GzipDecompress(comp[:len(comp)/2], 0); err == nil {
		t.Fatal("truncated gzip stream decoded without error")
	}
	// Bad magic.
	bad2 := append([]byte{}, comp...)
	bad2[0] = 0
	if _, err := GzipDecompress(bad2, 0); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestInflateMaxSizeGuard(t *testing.T) {
	data := bytes.Repeat([]byte{'b'}, 100000)
	comp, err := CompressBytes(data, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Inflate(nil, bytesReader(comp), 1000); err == nil {
		t.Fatal("expected bomb guard to trip")
	}
	out, err := Inflate(nil, bytesReader(comp), len(data))
	if err != nil {
		t.Fatalf("exact-size limit should pass: %v", err)
	}
	if len(out) != len(data) {
		t.Fatalf("got %d bytes", len(out))
	}

	// The boundary itself, wherever it falls: output of exactly maxSize
	// passes and one byte more is refused.
	noise := make([]byte, 3000)
	rand.New(rand.NewSource(19)).Read(noise)
	for name, c := range map[string]struct {
		data   []byte
		stored bool
	}{
		"stored block":           {noise, true},
		"literal run":            {[]byte("abcdefghijklmnopqrstuvwxyz"), false}, // no byte twice: no match
		"match across the limit": {bytes.Repeat([]byte{'a'}, 259), false},       // ends in one of >= 3 bytes
	} {
		comp, err := CompressBytes(c.data, 9)
		if err != nil {
			t.Fatal(err)
		}
		if stored := comp[0]>>1&3 == 0; stored != c.stored {
			t.Fatalf("%s: a stored block: %v, meant %v", name, stored, c.stored)
		}
		out, err := Inflate(nil, bytesReader(comp), len(c.data))
		if err != nil || !bytes.Equal(out, c.data) {
			t.Errorf("%s: maxSize of exactly the output: err %v", name, err)
		}
		if _, err := Inflate(nil, bytesReader(comp), len(c.data)-1); err == nil {
			t.Errorf("%s: maxSize one byte under the output was not enforced", name)
		}
	}
}

func TestLevelValidation(t *testing.T) {
	for _, bad := range []int{0, 10, -1} {
		if _, err := GzipCompress([]byte("x"), bad); err == nil {
			t.Errorf("GzipCompress level %d accepted", bad)
		}
		if _, err := ZlibCompress([]byte("x"), bad); err == nil {
			t.Errorf("ZlibCompress level %d accepted", bad)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20000)
		data := make([]byte, n)
		alpha := 1 + rng.Intn(255)
		for i := range data {
			data[i] = byte(rng.Intn(alpha))
		}
		level := 1 + rng.Intn(9)
		comp, err := GzipCompress(data, level)
		if err != nil {
			return false
		}
		got, err := GzipDecompress(comp, 0)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestInflateRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	reject := 0
	for i := 0; i < 50; i++ {
		junk := make([]byte, 200+rng.Intn(500))
		rng.Read(junk)
		if _, err := Inflate(nil, bytesReader(junk), 1<<20); err != nil {
			reject++
		}
	}
	// Random bytes occasionally parse as tiny valid streams; most must fail.
	if reject < 40 {
		t.Errorf("only %d/50 garbage streams rejected", reject)
	}
}

func TestMultiBlockBoundary(t *testing.T) {
	// Force several blocks by exceeding maxTokensPerBlock with literals.
	rng := rand.New(rand.NewSource(17))
	data := make([]byte, 3*maxTokensPerBlock)
	rng.Read(data)
	comp, err := CompressBytes(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecompressBytes(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-block round trip mismatch")
	}
}

func BenchmarkDeflateLevel9Text(b *testing.B) {
	data := []byte(strings.Repeat("benchmark corpus for deflate measurements over wireless links\n", 2000))
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := CompressBytes(data, 9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeflateBenchFiles encodes the benchmark's six files as a cold
// gzip miss does: each 128 kB block deflated at level 9.
func BenchmarkDeflateBenchFiles(b *testing.B) {
	for _, f := range benchFiles(b) {
		b.Run(f.Name, func(b *testing.B) {
			b.SetBytes(int64(len(f.Data)))
			for i := 0; i < b.N; i++ {
				for off := 0; off < len(f.Data); off += blockBytes {
					if _, err := CompressBytes(f.Data[off:min(off+blockBytes, len(f.Data))], 9); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkInflateBlocks decodes the benchmark's six files as the client
// does: each 128 kB block gzipped at level 9, decoded into a buffer with
// room for it.
func BenchmarkInflateBlocks(b *testing.B) {
	for _, f := range benchFiles(b) {
		var blocks [][]byte
		for off := 0; off < len(f.Data); off += blockBytes {
			member, err := GzipCompress(f.Data[off:min(off+blockBytes, len(f.Data))], 9)
			if err != nil {
				b.Fatal(err)
			}
			blocks = append(blocks, member)
		}
		b.Run(f.Name, func(b *testing.B) {
			dst := make([]byte, 0, blockBytes)
			b.SetBytes(int64(len(f.Data)))
			for i := 0; i < b.N; i++ {
				for k, member := range blocks {
					size := min(blockBytes, len(f.Data)-k*blockBytes)
					if _, err := GzipDecompressAppend(dst, member, size); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkInflateNoRoom decodes the same blocks as BenchmarkInflateBlocks,
// zlib-wrapped, with ZlibDecompress: a caller with no size hint, whose
// output starts at nil and grows as it is decoded.
func BenchmarkInflateNoRoom(b *testing.B) {
	for _, f := range benchFiles(b) {
		var blocks [][]byte
		for off := 0; off < len(f.Data); off += blockBytes {
			z, err := ZlibCompress(f.Data[off:min(off+blockBytes, len(f.Data))], 9)
			if err != nil {
				b.Fatal(err)
			}
			blocks = append(blocks, z)
		}
		b.Run(f.Name, func(b *testing.B) {
			b.SetBytes(int64(len(f.Data)))
			for i := 0; i < b.N; i++ {
				for _, z := range blocks {
					if _, err := ZlibDecompress(z, 0); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkInflateText(b *testing.B) {
	data := []byte(strings.Repeat("benchmark corpus for deflate measurements over wireless links\n", 2000))
	comp, err := CompressBytes(data, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecompressBytes(comp); err != nil {
			b.Fatal(err)
		}
	}
}
