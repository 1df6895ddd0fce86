package bitio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The two bit writers as they were before they stored whole words: one
// append per output byte. Every encoder's compressed bytes went through
// these, so the word-storing writers are held to them call for call: the
// bytes written and the sticky error. Neither writes again after an error.

type referenceLSBWriter struct {
	buf []byte
	acc uint64
	n   uint
	err error
}

func (bw *referenceLSBWriter) WriteBits(v uint64, n uint) {
	if bw.err != nil {
		return
	}
	if n > maxBitsPerCall {
		bw.err = ErrBitOverflow
		return
	}
	bw.acc |= (v & ((1 << n) - 1)) << bw.n
	bw.n += n
	for bw.n >= 8 {
		bw.buf = append(bw.buf, byte(bw.acc))
		bw.acc >>= 8
		bw.n -= 8
	}
}

func (bw *referenceLSBWriter) WriteBytes(p []byte) {
	if bw.err != nil {
		return
	}
	if bw.n != 0 {
		bw.err = errors.New("bitio: WriteBytes on unaligned writer")
		return
	}
	bw.buf = append(bw.buf, p...)
}

func (bw *referenceLSBWriter) Align() {
	if bw.err == nil && bw.n > 0 {
		bw.buf = append(bw.buf, byte(bw.acc))
		bw.acc = 0
		bw.n = 0
	}
}

func (bw *referenceLSBWriter) Flush() error {
	bw.Align()
	return bw.err
}

type referenceMSBWriter struct {
	buf []byte
	acc uint64
	n   uint
	err error
}

func (bw *referenceMSBWriter) WriteBits(v uint64, n uint) {
	if bw.err != nil {
		return
	}
	if n > maxBitsPerCall {
		bw.err = ErrBitOverflow
		return
	}
	bw.acc = (bw.acc << n) | (v & ((1 << n) - 1))
	bw.n += n
	for bw.n >= 8 {
		bw.buf = append(bw.buf, byte(bw.acc>>(bw.n-8)))
		bw.n -= 8
	}
	bw.acc &= (1 << bw.n) - 1
}

func (bw *referenceMSBWriter) Flush() error {
	if bw.err == nil && bw.n > 0 {
		bw.buf = append(bw.buf, byte(bw.acc<<(8-bw.n)))
		bw.acc = 0
		bw.n = 0
	}
	return bw.err
}

// writerOp is one call on a bit writer: WriteBits(v, n), Align or
// WriteBytes(p). The MSB-first writer has neither of the last two, so it
// is held to its reference with Flush, which pads to a byte, for Align and
// a WriteBits(b, 8) per byte for WriteBytes.
type writerOp struct {
	kind int
	v    uint64
	n    uint
	p    []byte
}

const (
	opBits = iota
	opAlign
	opBytes
)

// checkLSB drives got, Reset to dst, and the reference, started on a copy
// of dst, through ops, and requires the same sticky error after every call
// and after Flush, then the same stream, with dst's own bytes untouched.
func checkLSB(tb testing.TB, what string, got *LSBWriter, dst []byte, ops []writerOp) {
	tb.Helper()
	orig := slices.Clone(dst)
	want := &referenceLSBWriter{buf: slices.Clone(dst)}
	got.Reset(dst)
	for i, op := range ops {
		switch op.kind {
		case opBits:
			got.WriteBits(op.v, op.n)
			want.WriteBits(op.v, op.n)
		case opAlign:
			got.Align()
			want.Align()
		case opBytes:
			got.WriteBytes(op.p)
			want.WriteBytes(op.p)
		}
		sameErr(tb, fmt.Sprintf("%s: call %d", what, i), got.Err(), want.err)
	}
	sameErr(tb, what+": Flush", got.Flush(), want.Flush())
	sameStream(tb, what, got.Bytes(), want.buf, dst, orig)
}

// checkMSB is checkLSB for the MSB-first writer.
func checkMSB(tb testing.TB, what string, got *MSBWriter, dst []byte, ops []writerOp) {
	tb.Helper()
	orig := slices.Clone(dst)
	want := &referenceMSBWriter{buf: slices.Clone(dst)}
	got.Reset(dst)
	for i, op := range ops {
		switch op.kind {
		case opBits:
			got.WriteBits(op.v, op.n)
			want.WriteBits(op.v, op.n)
		case opAlign:
			_, _ = got.Flush(), want.Flush()
		case opBytes:
			for _, b := range op.p {
				got.WriteBits(uint64(b), 8)
				want.WriteBits(uint64(b), 8)
			}
		}
		sameErr(tb, fmt.Sprintf("%s: call %d", what, i), got.Err(), want.err)
	}
	sameErr(tb, what+": Flush", got.Flush(), want.Flush())
	sameStream(tb, what, got.Bytes(), want.buf, dst, orig)
}

func sameErr(tb testing.TB, what string, got, want error) {
	tb.Helper()
	if (got == nil) != (want == nil) || (want != nil && got.Error() != want.Error()) {
		tb.Fatalf("%s: error %v, reference %v", what, got, want)
	}
}

func sameStream(tb testing.TB, what string, got, want, dst, orig []byte) {
	tb.Helper()
	if !bytes.Equal(got, want) {
		tb.Fatalf("%s: %d bytes written, differing from the reference writer's %d", what, len(got), len(want))
	}
	if !bytes.Equal(dst, orig) {
		tb.Fatalf("%s: the %d bytes dst held were overwritten", what, len(dst))
	}
}

// bitCount draws a width for one WriteBits call: mostly code-sized, now
// and then zero, the 57-bit limit, or over it.
func bitCount(rng *rand.Rand) uint {
	switch r := rng.Intn(1000); {
	case r < 600:
		return uint(1 + rng.Intn(20))
	case r < 900:
		return uint(rng.Intn(58))
	case r < 940:
		return 0
	case r < 998:
		return 57
	default:
		return uint(58 + rng.Intn(10))
	}
}

// randomOps draws a stream of calls: WriteBits of every width including
// the refused ones, Align, and WriteBytes, usually aligned as DEFLATE's
// stored blocks are, and now and then not.
func randomOps(rng *rand.Rand) []writerOp {
	var ops []writerOp
	for c := rng.Intn(3000); c >= 0; c-- {
		switch r := rng.Intn(1000); {
		case r < 985:
			ops = append(ops, writerOp{kind: opBits, v: rng.Uint64(), n: bitCount(rng)})
		case r < 990:
			ops = append(ops, writerOp{kind: opAlign})
		default:
			if rng.Intn(8) > 0 {
				ops = append(ops, writerOp{kind: opAlign})
			}
			p := make([]byte, rng.Intn(300))
			rng.Read(p)
			ops = append(ops, writerOp{kind: opBytes, p: p})
		}
	}
	return ops
}

// randomDst draws the slice a stream is appended to: up to 20 bytes of its
// own and up to 20 bytes of room.
func randomDst(rng *rand.Rand) []byte {
	dst := make([]byte, rng.Intn(21), 40)
	rng.Read(dst)
	return dst[: len(dst) : len(dst)+rng.Intn(21)]
}

// TestLSBWriterMatchesReference drives one LSBWriter, reused through Reset,
// and the reference writer through the same random calls onto random dst
// slices, and requires the same errors and the same bytes.
func TestLSBWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	got := new(LSBWriter)
	for round := 0; round < 300; round++ {
		checkLSB(t, fmt.Sprintf("round %d", round), got, randomDst(rng), randomOps(rng))
	}
}

// TestMSBWriterMatchesReference is the same for the MSB-first writer.
func TestMSBWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	got := new(MSBWriter)
	for round := 0; round < 300; round++ {
		checkMSB(t, fmt.Sprintf("round %d", round), got, randomDst(rng), randomOps(rng))
	}
}

// TestWritersGrowAtEveryPhase starts each writer on a non-empty dst with
// room for 0 to 8 more bytes and writes past that room and the regrown
// slice's, with every bit phase and every call width, where a word store
// could run past the slice or a regrowth drop a byte or touch dst.
func TestWritersGrowAtEveryPhase(t *testing.T) {
	for phase := uint(0); phase < 8; phase++ {
		for width := uint(1); width <= maxBitsPerCall; width++ {
			ops := []writerOp{{kind: opBits, v: 0x55, n: phase}}
			for i := 0; i < 12; i++ {
				ops = append(ops, writerOp{kind: opBits, v: 0xA5A5A5A5A5A5A5A5 + uint64(i), n: width})
				if i == 5 {
					ops = append(ops, writerOp{kind: opAlign}) // a pad byte may be the one that fills the room
				}
			}
			for spare := 0; spare <= 8; spare++ {
				dst := append(make([]byte, 0, 3+spare), 0xde, 0xad, 0xbe)
				what := fmt.Sprintf("phase %d width %d spare %d", phase, width, spare)
				checkLSB(t, "LSB "+what, new(LSBWriter), dst, ops)
				checkMSB(t, "MSB "+what, new(MSBWriter), dst, ops)
			}
		}
	}
}

// FuzzWritersMatchReference holds both writers to the references on an
// arbitrary dst and call sequence. The first byte gives dst's length (its
// low nibble) and room (its high nibble); the rest are calls, each an op
// byte and its arguments: a width (taken mod 58) and up to eight value
// bytes for WriteBits, the op byte's top six bits as WriteBytes' length.
func FuzzWritersMatchReference(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x83, 0, 57, 1, 2, 3, 4, 5, 6, 7, 8, 1, 3, 0xff, 0, 0, 0, 0, 0, 0, 0, 2, 5<<2 | 3, 'h', 'e', 'l', 'l', 'o', 0, 7, 0x7f})
	f.Add([]byte{0x8f, 1, 7, 0x7f, 0, 0, 0, 0, 0, 0, 0, 4<<2 | 3, 1, 2, 3, 4, 0, 57, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dst := make([]byte, data[0]&15, int(data[0]&15+data[0]>>4))
		for i := range dst {
			dst[i] = byte(0xe0 + i)
		}
		var ops []writerOp
		for b := data[1:]; len(b) > 0; {
			op := b[0]
			b = b[1:]
			switch op & 3 {
			case 0, 1:
				var arg [9]byte
				b = b[copy(arg[:], b):]
				ops = append(ops, writerOp{kind: opBits, n: uint(arg[0]) % (maxBitsPerCall + 1), v: binary.LittleEndian.Uint64(arg[1:])})
			case 2:
				ops = append(ops, writerOp{kind: opAlign})
			case 3:
				k := min(int(op>>2), len(b))
				ops = append(ops, writerOp{kind: opBytes, p: b[:k]})
				b = b[k:]
			}
		}
		checkLSB(t, "LSB", new(LSBWriter), dst, ops)
		checkMSB(t, "MSB", new(MSBWriter), dst, ops)
	})
}
