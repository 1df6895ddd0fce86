package flate

import (
	"bytes"
	"encoding/binary"
	"math/rand"
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

// TestGzipTruncationAlwaysFails: every strict prefix of a gzip stream must
// be rejected (the trailer is mandatory).
func TestGzipTruncationAlwaysFails(t *testing.T) {
	data := bytes.Repeat([]byte("truncation "), 2000)
	comp, err := GzipCompress(data, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 10, len(comp) / 4, len(comp) / 2, len(comp) - 9, len(comp) - 1} {
		if _, err := GzipDecompress(comp[:cut], 0); err == nil {
			t.Errorf("prefix of %d/%d bytes accepted", cut, len(comp))
		}
	}
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
		out, err := Inflate(nil, bytesReader(bad), limit)
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
