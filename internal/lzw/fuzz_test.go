package lzw

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitio"
)

// fuzzLimit is the maxSize the hostile-input tests decode under, and
// allocBound what one such decode may allocate in total — the
// malicious-server suite's bound (internal/proxy/malicious_test.go).
const (
	fuzzLimit  = 256 << 10
	allocBound = 16 << 20
)

// craft packs codes at the given widths behind a .Z header.
func craft(flags byte, codes ...[2]uint) []byte {
	out := bytes.NewBuffer([]byte{magicByte1, magicByte2, flags})
	bw := bitio.NewLSBWriter(out)
	for _, c := range codes {
		bw.WriteBits(uint64(c[0]), c[1])
	}
	_ = bw.Flush()
	return out.Bytes()
}

// seedStreams is the seed corpus: what FuzzLZWDecode starts from and what
// TestWorkspaceReuse crosses pairwise.
func seedStreams(tb testing.TB) map[string][]byte {
	compress := func(data []byte, bits int) []byte {
		comp, err := Compress(data, bits)
		if err != nil {
			tb.Fatal(err)
		}
		return comp
	}
	text := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 60))
	noise := make([]byte, 40<<10)
	rand.New(rand.NewSource(18)).Read(noise)
	wide := compress(noise, 16) // marches nextCode through several widths
	nonBlock := slices.Clone(compress(text, 12))
	nonBlock[2] &^= blockModeFlag
	seeds := map[string][]byte{
		"valid-text-b16":     compress(text, 16),
		"valid-text-b9":      compress(text, 9), // table fills at 512 codes
		"valid-noise-b16":    wide,
		"valid-nonblock-b12": nonBlock,
		"valid-kwkwk":        compress(bytes.Repeat([]byte{'a'}, 300), 16), // aaa...: every code is the one being defined
		"valid-empty":        compress(nil, 16),
		"truncated-half":     wide[:len(wide)/2],
		"truncated-header":   {magicByte1, magicByte2},
		"bad-magic":          {0x00, magicByte2, 0x90, 'a', 0},
		"bad-maxbits-8":      {magicByte1, magicByte2, 0x88, 'a', 0},
		"bad-maxbits-17":     {magicByte1, magicByte2, 0x91, 'a', 0},
		// 'a', 'b', CLEAR, 'c', then 257 again: defined before the clear, undefined after.
		"clear-mid-stream":  craft(0x90, [2]uint{'a', 9}, [2]uint{'b', 9}, [2]uint{257, 9}, [2]uint{clearCode, 9}, [2]uint{'c', 9}, [2]uint{257, 9}),
		"clear-then-valid":  craft(0x90, [2]uint{'a', 9}, [2]uint{'b', 9}, [2]uint{clearCode, 9}, [2]uint{'c', 9}, [2]uint{'d', 9}, [2]uint{257, 9}),
		"code-beyond-table": craft(0x90, [2]uint{'a', 9}, [2]uint{300, 9}),
		// Without block mode 256 is an ordinary, never-defined code.
		"nonblock-code-256":   craft(0x10, [2]uint{'a', 9}, [2]uint{256, 9}),
		"kwkwk-as-first-code": craft(0x90, [2]uint{257, 9}),
		"bomb":                compress(make([]byte, 1<<20), 16),
	}
	return seeds
}

// referenceDecompress is the decoder as it stood before the workspace:
// fresh tables per call, bits through bitio.LSBReader. The production
// decoder is held to it byte for byte, refusals included.
func referenceDecompress(data []byte, maxSize int) ([]byte, error) {
	if len(data) < 3 || data[0] != magicByte1 || data[1] != magicByte2 {
		return nil, ErrCorrupt
	}
	maxBits := int(data[2] & maxBitsMask)
	blockMode := data[2]&blockModeFlag != 0
	if maxBits < MinBits || maxBits > MaxBits {
		return nil, ErrCorrupt
	}
	out := []byte{}
	if len(data) == 3 {
		return out, nil
	}
	br := bitio.NewLSBReader(bytes.NewReader(data[3:]))
	size := 1 << maxBits
	suffix := make([]byte, size)
	prefixOf := make([]uint16, size)
	lenOf := make([]int32, size)
	for i := 0; i < 256; i++ {
		suffix[i] = byte(i)
		lenOf[i] = 1
	}
	nextCode := firstCode
	width := uint(MinBits)
	prev := int32(-1)
	var prevFirst byte
	for {
		if prev >= 0 && nextCode == 1<<width-1 && width < uint(maxBits) {
			width++
		}
		if br.AtEOF() {
			break
		}
		code := uint16(br.ReadBits(width))
		if br.Err() != nil {
			break
		}
		if blockMode && code == clearCode {
			nextCode, width, prev = firstCode, MinBits, -1
			continue
		}
		kwkwk := prev >= 0 && int(code) == nextCode && nextCode < size
		var n int
		if kwkwk {
			n = int(lenOf[prev]) + 1
		} else {
			if int(code) >= nextCode {
				return nil, ErrCorrupt
			}
			n = int(lenOf[code])
		}
		if n <= 0 || (maxSize > 0 && len(out)+n > maxSize) {
			return nil, ErrCorrupt
		}
		start := len(out)
		out = append(out, make([]byte, n)...)
		i := start + n - 1
		c := code
		if kwkwk {
			out[i] = prevFirst
			i--
			c = uint16(prev)
		}
		for c >= 256 {
			out[i] = suffix[c]
			i--
			c = prefixOf[c]
		}
		out[i] = byte(c)
		first := out[start]
		if prev >= 0 && nextCode < size {
			suffix[nextCode] = first
			prefixOf[nextCode] = uint16(prev)
			lenOf[nextCode] = lenOf[prev] + 1
			nextCode++
		}
		prev = int32(code)
		prevFirst = first
	}
	return out, nil
}

// checkDecode holds one decode of x on workspace d to the reference.
func checkDecode(d *decoder, x []byte, what string) error {
	want, wantErr := referenceDecompress(x, fuzzLimit)
	got, err := d.decompressAppend(nil, x, fuzzLimit)
	if (err != nil) != (wantErr != nil) {
		return fmt.Errorf("%s: err %v, reference err %v", what, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		return fmt.Errorf("%s: %d bytes differ from the reference's %d", what, len(got), len(want))
	}
	// The same decode onto the tail of a buffer that has room, as the
	// client does it: a refusal returns nil and leaves what was there.
	dst := append(make([]byte, 0, len(decodedSoFar)+len(want)+16<<10), decodedSoFar...)
	got, err = d.decompressAppend(dst, x, fuzzLimit)
	if !bytes.Equal(dst, decodedSoFar) || (err != nil) != (wantErr != nil) || (err != nil && got != nil) {
		return fmt.Errorf("%s, onto a prefix: err %v returning %d bytes, prefix now %q", what, err, len(got), dst)
	}
	if err == nil && !(bytes.HasPrefix(got, decodedSoFar) && bytes.Equal(got[len(decodedSoFar):], want)) {
		return fmt.Errorf("%s, onto a prefix: %d bytes differ from prefix + reference", what, len(got))
	}
	return nil
}

var decodedSoFar = []byte("the blocks before this one")

// poisoned is a workspace whose every reusable slot holds the worst
// leftovers a previous stream could have written.
func poisoned() *decoder {
	d := newDecoder()
	d.n[clearCode] = 7 // the one slot a stream can read without having written it
	d.off[clearCode] = ^uint32(0)
	for i := firstCode; i < len(d.n); i++ {
		d.off[i] = ^uint32(0) // far past any output
		d.n[i] = ^uint16(0)   // longer than any string a stream defines
	}
	return d
}

// checkWorkspaces is the differential oracle: x must decode identically
// on a fresh workspace, on one just used for y, and on a poisoned one.
func checkWorkspaces(x, y []byte) error {
	if err := checkDecode(newDecoder(), x, "fresh workspace"); err != nil {
		return err
	}
	used := newDecoder()
	_, _ = used.decompressAppend(nil, y, fuzzLimit)
	if err := checkDecode(used, x, "used workspace"); err != nil {
		return err
	}
	return checkDecode(poisoned(), x, "poisoned workspace")
}

// TestWorkspaceReuse crosses every seed stream with every other.
func TestWorkspaceReuse(t *testing.T) {
	seeds := seedStreams(t)
	for xn, x := range seeds {
		for yn, y := range seeds {
			if err := checkWorkspaces(x, y); err != nil {
				t.Errorf("%s after %s: %v", xn, yn, err)
			}
		}
	}
}

// FuzzLZWDecode feeds the decoder arbitrary streams x, each after an
// unrelated stream y has been through the same workspace: no panic, the
// reference's bytes or a refusal where it refuses, never more than
// allocBound allocated under a fuzzLimit budget; and x taken as raw data
// must survive Compress/Decompress at the width its first byte picks.
func FuzzLZWDecode(f *testing.F) {
	seeds := seedStreams(f)
	for _, x := range seeds {
		f.Add(x, seeds["bomb"])
		f.Add(x, seeds["valid-noise-b16"])
	}
	f.Fuzz(func(t *testing.T, x, y []byte) {
		if err := checkWorkspaces(x, y); err != nil {
			t.Fatal(err)
		}

		var m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m1)
		_, _ = DecompressAppend(nil, x, fuzzLimit)
		runtime.ReadMemStats(&m2)
		if got := m2.TotalAlloc - m1.TotalAlloc; got > allocBound {
			t.Fatalf("decoding %d bytes under a %d-byte limit allocated %d", len(x), fuzzLimit, got)
		}

		bits := MinBits
		if len(x) > 0 {
			bits += int(x[0]) % (MaxBits - MinBits + 1)
		}
		comp, err := Compress(x, bits)
		if err != nil {
			t.Fatalf("Compress -b%d: %v", bits, err)
		}
		back, err := Decompress(comp, len(x))
		if err != nil || !bytes.Equal(back, x) {
			t.Fatalf("round trip -b%d of %d bytes: err %v", bits, len(x), err)
		}
	})
}
