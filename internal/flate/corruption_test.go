package flate

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/checksum"
)

// TestGzipMutationNeverPanicsOrLies: for random single-byte mutations of a
// valid gzip stream, decompression must either fail or return exactly the
// original bytes (the CRC-32 trailer must catch every silent corruption).
func TestGzipMutationNeverPanicsOrLies(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	data := make([]byte, 40_000)
	for i := range data {
		data[i] = byte(rng.Intn(40)) // compressible
	}
	comp, err := GzipCompress(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for trial := 0; trial < 300; trial++ {
		bad := append([]byte{}, comp...)
		pos := rng.Intn(len(bad))
		bad[pos] ^= byte(1 + rng.Intn(255))
		out, err := GzipDecompress(bad, 4*len(data))
		if err == nil && !bytes.Equal(out, data) {
			wrong++
			t.Errorf("trial %d: mutation at %d decoded silently to different data", trial, pos)
		}
	}
	if wrong > 0 {
		t.Fatalf("%d silent corruptions", wrong)
	}
}

// TestGzipTruncationAlwaysFails: every strict prefix of a stream that
// decodes is refused — the trailer is mandatory — through gzip, zlib and
// raw DEFLATE. The streams are a gzip -9 member, each streamSeeds member and
// a multi-block stream of corpus bytes; the words of every prefix's verdict
// are pinned, cut by cut, by a digest of them all per stream.
func TestGzipTruncationAlwaysFails(t *testing.T) {
	comp, err := GzipCompress(bytes.Repeat([]byte("truncation "), 2000), 9)
	if err != nil {
		t.Fatal(err)
	}
	corpus := DifferentialCorpus()
	data := slices.Concat(corpus["source"][:6000], corpus["media"][:3000], corpus["runs"][:3000], corpus["xml"][:6000])
	multi := segmentedGzip(t, data, 9, 3000) // dynamic, stored and fixed blocks
	body := multi[gzipHdrLen : len(multi)-gzipTrailLen]
	zl := binary.BigEndian.AppendUint32(append([]byte{0x78, 0xda}, body...), checksum.Adler32(data))

	// Room for what a prefix's ISIZE field, whatever bytes it reads, asks
	// GzipDecompress to reserve, so that each of the many prefixes does
	// not allocate it afresh.
	room := make([]byte, 0, maxTrailerPrealloc)
	gzip := func(b []byte) error { _, err := GzipDecompressAppend(room, b, 0); return err }
	zlib := func(b []byte) error { _, err := ZlibDecompress(b, 0); return err }
	raw := func(b []byte) error { _, err := Inflate(nil, b, 0); return err }
	type stream struct {
		comp   []byte
		decode func([]byte) error
	}
	streams := map[string]stream{
		"gzip/truncation":     {comp, gzip},
		"gzip/multi-block":    {multi, gzip},
		"zlib/multi-block":    {zl, zlib},
		"deflate/multi-block": {body, raw},
	}
	for name, member := range streamSeeds(t) {
		streams["gzip/"+name] = stream{member, gzip}
	}
	for name, s := range streams {
		whole := s.decode(s.comp) == nil
		h := sha256.New()
		for cut := range len(s.comp) {
			err := s.decode(s.comp[:cut])
			if whole && err == nil {
				t.Errorf("%s: prefix of %d/%d bytes accepted", name, cut, len(s.comp))
			}
			fmt.Fprintf(h, "%d: %s\n", cut, errText(err))
		}
		if got := hex.EncodeToString(h.Sum(nil)[:8]); got != truncationWords[name] {
			t.Errorf("%s: the prefixes' verdicts digest to %s, pinned %s", name, got, truncationWords[name])
		}
	}
}

// truncationWords pins, per stream of TestGzipTruncationAlwaysFails, the
// digest of every strict prefix's verdict in its decoder's words.
var truncationWords = map[string]string{
	"deflate/multi-block":     "8cd121a4bc13313a",
	"gzip/bad-crc":            "14269c1f81dc0f22",
	"gzip/bad-header-crc":     "87652a3db25b95a3",
	"gzip/dynamic":            "14269c1f81dc0f22",
	"gzip/empty":              "be21c7bd0acb6ea0",
	"gzip/fextra-fname":       "489599f256dc7f78",
	"gzip/fixed":              "caaaebce65e46906",
	"gzip/gap-before-trailer": "2fadd624cbfb95a3",
	"gzip/good-header-crc":    "fce0163cc78f5c9a",
	"gzip/lone-2-bit-code":    "6476738ce7c5dea9",
	"gzip/multi-block":        "45ab65f7807e703f",
	"gzip/name-511-bytes":     "cc721de8d7e93a3a",
	"gzip/name-512-bytes":     "cb8930013b8964d9",
	"gzip/no-dist-codes":      "3750133eeafb6bcb",
	"gzip/one-dist-code":      "3750133eeafb6bcb",
	"gzip/second-member":      "57a0818174d4bdb3",
	"gzip/stored":             "f616626b53a7b15e",
	"gzip/trailing-byte":      "1a1aecfc2d7e184d",
	"gzip/truncated-body":     "eeba00703fddd8dc",
	"gzip/truncated-trailer":  "e1b9ffb64ccdb1aa",
	"gzip/truncation":         "09ea396ad897d19c",
	"gzip/writer-segments":    "cfbdedf5d8640d28",
	"zlib/multi-block":        "59417eb24e9ab750",
}

// TestInflateBitFlipsBounded: raw DEFLATE has no checksum, so a bit flip
// may decode to different bytes — but it must never panic and never exceed
// the declared size limit.
func TestInflateBitFlipsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	data := make([]byte, 20_000)
	for i := range data {
		data[i] = byte(rng.Intn(8))
	}
	comp, err := CompressBytes(data, 9)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 1 << 20
	for trial := 0; trial < 200; trial++ {
		bad := append([]byte{}, comp...)
		bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
		out, err := Inflate(nil, bad, limit)
		if err == nil && len(out) > limit {
			t.Fatalf("trial %d: output %d exceeded limit", trial, len(out))
		}
	}
}

// TestDynamicHeaderEdgeCases exercises streams that use unusual but legal
// header encodings.
func TestDynamicHeaderEdgeCases(t *testing.T) {
	// Single repeated byte: one literal symbol + end marker; the dynamic
	// path degenerates to near-unary codes.
	for _, n := range []int{1, 2, 3, 257, 258, 259, 65535, 65536, 70000} {
		data := bytes.Repeat([]byte{'z'}, n)
		comp, err := CompressBytes(data, 9)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		out, err := DecompressBytes(comp)
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("n=%d: round trip failed: %v", n, err)
		}
	}
}

// TestAllLengthAndDistanceCodes drives matches through every length and
// distance bucket of the DEFLATE tables.
func TestAllLengthAndDistanceCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	var data []byte
	// A unique seed phrase, then echoes at increasing distances with
	// increasing lengths.
	phrase := make([]byte, 300)
	rng.Read(phrase)
	data = append(data, phrase...)
	for dist := 1; dist <= 24577; dist *= 2 {
		pad := make([]byte, dist)
		rng.Read(pad)
		data = append(data, pad...)
		start := len(data) - dist
		if start < 0 {
			start = 0
		}
		n := 3 + rng.Intn(256)
		for k := 0; k < n; k++ {
			data = append(data, data[start+k])
		}
	}
	comp, err := CompressBytes(data, 9)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecompressBytes(comp)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("round trip failed: %v", err)
	}
}

// TestZlibHeaderCheckValue: the two-byte header must satisfy the mod-31
// check for every level.
func TestZlibHeaderCheckValue(t *testing.T) {
	for level := 1; level <= 9; level++ {
		comp, err := ZlibCompress([]byte("check"), level)
		if err != nil {
			t.Fatal(err)
		}
		if (uint16(comp[0])<<8|uint16(comp[1]))%31 != 0 {
			t.Errorf("level %d: header %x fails mod-31", level, comp[:2])
		}
	}
}

// TestGzipHeaderWithOptionalFields: decoder must skip FEXTRA/FNAME/FCOMMENT.
func TestGzipHeaderWithOptionalFields(t *testing.T) {
	data := []byte("optional header fields")
	comp, err := GzipCompress(data, 9)
	if err != nil {
		t.Fatal(err)
	}
	body := comp[10:]
	// Rebuild with FLG = FNAME|FCOMMENT|FEXTRA.
	hdr := []byte{0x1f, 0x8b, 8, 0x1c, 0, 0, 0, 0, 0, 3}
	withFields := append([]byte{}, hdr...)
	withFields = append(withFields, 4, 0, 'e', 'x', 't', 'r') // FEXTRA
	withFields = append(withFields, 'n', 'a', 'm', 'e', 0)    // FNAME
	withFields = append(withFields, 'c', 'o', 'm', 0)         // FCOMMENT
	withFields = append(withFields, body...)
	out, err := GzipDecompress(withFields, 0)
	if err != nil {
		t.Fatalf("optional fields rejected: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("content mismatch")
	}
}

// TestMatchCannotReachIntoPrefix: a stream decoded onto the tail of a
// buffer may copy only from its own output. One fixed block whose first
// symbol is a three-byte match at distance one is refused on an empty dst,
// and must be on a dst that has three bytes to offer.
func TestMatchCannotReachIntoPrefix(t *testing.T) {
	var body bytes.Buffer
	bw := bitio.NewLSBWriter(&body)
	bw.WriteBits(1, 1)         // BFINAL
	bw.WriteBits(1, 2)         // fixed codes
	bw.WriteBits(0b1000000, 7) // length code 257 (0000001, first bit first): 3 bytes
	bw.WriteBits(0, 5)         // distance code 0: 1 byte back
	bw.WriteBits(0, 7)         // end of block
	_ = bw.Flush()
	stream := append([]byte{gzipID1, gzipID2, gzipCM, 0, 0, 0, 0, 0, 0, gzipOSUnix}, body.Bytes()...)
	stream = binary.LittleEndian.AppendUint32(stream, checksum.CRC32([]byte("zzz")))
	stream = binary.LittleEndian.AppendUint32(stream, 3)
	for _, dst := range [][]byte{nil, []byte("xyz")} {
		if out, err := GzipDecompressAppend(dst, stream, 0); err == nil {
			t.Errorf("onto %q: decoded %q from a match that starts before the stream", dst, out[len(dst):])
		}
	}
}
