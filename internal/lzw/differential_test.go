package lzw

// Differential coverage for the decoder. A byte-for-byte cross-check
// against the standard library is not applicable for this scheme:
// compress/lzw implements the GIF/TIFF flavour (no .Z container,
// different clear-code and first-code semantics, per-stream literal
// width), which is wire-incompatible with the ncompress .Z format this
// package reproduces. The differential here is therefore round-trip over
// the paper's workload corpus — the decoder is held byte for byte to the
// prefix-chain walker in fuzz_test.go (referenceDecompress) — plus an
// explicit fixture that the two formats do not accidentally interdecode.

import (
	"bytes"
	stdlzw "compress/lzw"
	"testing"

	"repro/internal/workload"
)

func TestDifferentialRoundTripCorpus(t *testing.T) {
	classes := []struct {
		name  string
		class workload.Class
	}{
		{"source", workload.ClassSource},
		{"xml", workload.ClassXML},
		{"weblog", workload.ClassWebLog},
		{"binary", workload.ClassBinary},
		{"media", workload.ClassMedia},
		{"mail", workload.ClassMail},
	}
	for _, c := range classes {
		data := workload.Generate(c.class, 128*1024, 5)
		for _, bits := range []int{9, 12, 16} {
			comp, err := Compress(data, bits)
			if err != nil {
				t.Fatalf("%s/-b%d: Compress: %v", c.name, bits, err)
			}
			got, err := Decompress(comp, 0)
			if err != nil {
				t.Fatalf("%s/-b%d: Decompress: %v", c.name, bits, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s/-b%d: round trip mismatch", c.name, bits)
			}
		}
	}
}

func TestDecompressAppendExtendsPrefix(t *testing.T) {
	data := workload.Generate(workload.ClassSource, 64*1024, 9)
	comp, err := Compress(data, 16)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prior-content")
	out, err := DecompressAppend(append([]byte(nil), prefix...), comp, 0)
	if err != nil {
		t.Fatalf("DecompressAppend: %v", err)
	}
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], data) {
		t.Fatal("DecompressAppend did not extend the prefix correctly")
	}
	// maxSize budgets the appended bytes, not the whole slice.
	if _, err := DecompressAppend(append([]byte(nil), prefix...), comp, len(data)); err != nil {
		t.Fatalf("append with exact budget: %v", err)
	}
	if _, err := DecompressAppend(nil, comp, len(data)-1); err == nil {
		t.Fatal("undersized budget not enforced")
	}
}

// TestDecodeLeavesSpareCapacity: a short string is stored as a whole word,
// up to 7 bytes past its end. Decoding onto a prefix with maxSize the raw
// length — as the client decodes each block of a fetch into the buffer the
// whole fetch lands in — into a buffer with canary bytes of spare capacity
// past that length, the block must land in place and every canary survive.
// The crafted streams end on each kind of code: a literal, a lone byte, a
// dictionary string of exactly 8 bytes, and KwKwK strings of 2 and 8.
func TestDecodeLeavesSpareCapacity(t *testing.T) {
	c9 := func(codes ...uint) []byte {
		w := make([][2]uint, len(codes))
		for i, c := range codes {
			w[i] = [2]uint{c, 9}
		}
		return craft(0x90, w...)
	}
	streams := map[string][]byte{
		"last-literal":   c9('a', 'b', 'c'),
		"lone-byte":      c9('a'),
		"last-8-byte":    c9('a', 257, 258, 259, 260, 261, 262, 'b', 263), // 263 is "aaaaaaab"
		"last-kwkwk-2":   c9('a', 257),
		"last-kwkwk-8":   c9('a', 257, 258, 259, 260, 261, 262, 263),
		"last-long-copy": c9('a', 257, 258, 259, 260, 261, 262, 263, 264, 'b', 265),
	}
	for _, f := range benchFiles(t) {
		comp, err := Compress(f.Data[:blockBytes], MaxBits)
		if err != nil {
			t.Fatal(err)
		}
		streams[f.Name] = comp
	}
	const canary, spare = 0xcc, 64
	for name, stream := range streams {
		raw, err := referenceDecompress(stream, 0)
		if err != nil || len(raw) == 0 {
			t.Fatalf("%s: the reference decodes %d bytes, err %v", name, len(raw), err)
		}
		buf := make([]byte, len(decodedSoFar)+len(raw)+spare)
		copy(buf, decodedSoFar)
		tail := buf[len(decodedSoFar)+len(raw):]
		for i := range tail {
			tail[i] = canary
		}
		out, err := DecompressAppend(buf[:len(decodedSoFar)], stream, len(raw))
		if err != nil || !bytes.Equal(out, append(bytes.Clone(decodedSoFar), raw...)) {
			t.Fatalf("%s: %d bytes, err %v; want the prefix and the reference's %d", name, len(out), err, len(raw))
		}
		if &out[0] != &buf[0] {
			t.Errorf("%s: decoded into a new array, not the buffer with room", name)
		}
		for i, b := range tail {
			if b != canary {
				t.Fatalf("%s: spare byte %d past the block overwritten (%#x)", name, i, b)
			}
		}
	}
}

// TestStdlibFormatMismatch pins the reason there is no stdlib
// cross-decode: a compress/lzw stream has no .Z magic and must be
// rejected, not misparsed.
func TestStdlibFormatMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := stdlzw.NewWriter(&buf, stdlzw.LSB, 8)
	w.Write([]byte("the two wire formats must not interdecode"))
	w.Close()
	if _, err := Decompress(buf.Bytes(), 0); err == nil {
		t.Fatal("decoded a GIF-flavour LZW stream as .Z")
	}
}
