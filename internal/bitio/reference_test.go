package bitio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// The two bit writers as they were before they stored whole words: one
// append per output byte, a drain at 4096. Every encoder's compressed
// bytes went through these, so the word-storing writers are held to them
// call for call: the bytes written and the sticky error.

type referenceLSBWriter struct {
	w   io.Writer
	acc uint64
	n   uint
	buf []byte
	err error
}

func (bw *referenceLSBWriter) Reset(w io.Writer) {
	*bw = referenceLSBWriter{w: w, buf: bw.buf[:0]}
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
		if len(bw.buf) >= 4096 {
			bw.drain()
		}
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
	bw.drain()
	if _, err := bw.w.Write(p); err != nil {
		bw.err = err
	}
}

func (bw *referenceLSBWriter) Align() {
	if bw.n > 0 {
		bw.buf = append(bw.buf, byte(bw.acc))
		bw.acc = 0
		bw.n = 0
	}
}

func (bw *referenceLSBWriter) drain() {
	if len(bw.buf) == 0 || bw.err != nil {
		return
	}
	if _, err := bw.w.Write(bw.buf); err != nil {
		bw.err = err
	}
	bw.buf = bw.buf[:0]
}

func (bw *referenceLSBWriter) Flush() error {
	bw.Align()
	bw.drain()
	return bw.err
}

func (bw *referenceLSBWriter) Err() error { return bw.err }

type referenceMSBWriter struct {
	w   io.Writer
	acc uint64
	n   uint
	buf []byte
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
		if len(bw.buf) >= 4096 {
			bw.drain()
		}
	}
	bw.acc &= (1 << bw.n) - 1
}

func (bw *referenceMSBWriter) drain() {
	if len(bw.buf) == 0 || bw.err != nil {
		return
	}
	if _, err := bw.w.Write(bw.buf); err != nil {
		bw.err = err
	}
	bw.buf = bw.buf[:0]
}

func (bw *referenceMSBWriter) Flush() error {
	if bw.n > 0 {
		bw.buf = append(bw.buf, byte(bw.acc<<(8-bw.n)))
		bw.acc = 0
		bw.n = 0
	}
	bw.drain()
	return bw.err
}

func (bw *referenceMSBWriter) Err() error { return bw.err }

// sink keeps the bytes it is written and refuses the Write that would take
// it past budget bytes (none, when negative) and every one after it.
type sink struct {
	got    []byte
	budget int
	full   bool
}

var errSink = errors.New("sink full")

func (s *sink) Write(p []byte) (int, error) {
	if s.full || s.budget >= 0 && len(s.got)+len(p) > s.budget {
		s.full = true
		return 0, errSink
	}
	s.got = append(s.got, p...)
	return len(p), nil
}

// agree requires the writer to have ended as the reference did: the same
// error, and with none the same bytes in the sink. After an error — the
// sink's, or a refused call's — neither writes again, so what each had
// already drained stays a prefix of one stream; the two may differ in how
// much that is, because the reference cuts its stream every 4096 bytes and
// the word-storing writers once fewer than eight bytes of room are left.
func agree(t *testing.T, what string, got, want *sink, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	short, long := got.got, want.got
	if len(short) > len(long) {
		short, long = long, short
	}
	if !bytes.HasPrefix(long, short) || (wantErr == nil && len(short) != len(long)) {
		t.Fatalf("%s: %d bytes written, differing from the reference writer's %d", what, len(got.got), len(want.got))
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

// TestLSBWriterMatchesReference drives one LSBWriter, reused through Reset,
// and the retired writer with the same random calls — WriteBits of every
// width including the refused ones, Align, WriteBytes aligned and not,
// Flush in mid-stream — over streams that drain several times, some into a
// sink that fills up, and requires the same bytes and the same error: after
// every call while the sink holds, at the end when it does not.
func TestLSBWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	got, want := NewLSBWriter(nil), new(referenceLSBWriter)
	for round := 0; round < 300; round++ {
		budget := -1
		if round%3 == 2 {
			budget = rng.Intn(20000)
		}
		gs, ws := &sink{budget: budget}, &sink{budget: budget}
		got.Reset(gs)
		want.Reset(ws)
		calls := 1 + rng.Intn(3000)
		for c := 0; c < calls; c++ {
			switch r := rng.Intn(1000); {
			case r < 985:
				v, n := rng.Uint64(), bitCount(rng)
				if round%5 == 0 && n <= maxBitsPerCall {
					n = 57 // reach the drain at every phase quickly
				}
				got.WriteBits(v, n)
				want.WriteBits(v, n)
			case r < 990:
				got.Align()
				want.Align()
			case r < 997:
				if rng.Intn(8) > 0 { // usually aligned, as DEFLATE's stored blocks are
					got.Align()
					want.Align()
				}
				p := make([]byte, rng.Intn(300))
				rng.Read(p)
				got.WriteBytes(p)
				want.WriteBytes(p)
			default:
				g, w := got.Flush(), want.Flush()
				agree(t, fmt.Sprintf("round %d call %d: Flush", round, c), gs, ws, g, w)
			}
			if budget < 0 {
				g, w := got.Err(), want.Err()
				if (g == nil) != (w == nil) || (w != nil && g.Error() != w.Error()) {
					t.Fatalf("round %d call %d: Err %v, reference %v", round, c, g, w)
				}
			}
		}
		g, w := got.Flush(), want.Flush()
		agree(t, fmt.Sprintf("round %d", round), gs, ws, g, w)
	}
}

// TestMSBWriterMatchesReference is the same for the MSB-first writer, which
// has no Reset: a fresh pair per stream.
func TestMSBWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 300; round++ {
		budget := -1
		if round%3 == 2 {
			budget = rng.Intn(20000)
		}
		gs, ws := &sink{budget: budget}, &sink{budget: budget}
		got, want := NewMSBWriter(gs), &referenceMSBWriter{w: ws}
		calls := 1 + rng.Intn(3000)
		for c := 0; c < calls; c++ {
			if rng.Intn(1000) == 0 {
				g, w := got.Flush(), want.Flush()
				agree(t, fmt.Sprintf("round %d call %d: Flush", round, c), gs, ws, g, w)
				continue
			}
			v, n := rng.Uint64(), bitCount(rng)
			if round%5 == 0 && n <= maxBitsPerCall {
				n = 57
			}
			got.WriteBits(v, n)
			want.WriteBits(v, n)
			if g, w := got.Err(), want.Err(); budget < 0 && g != w {
				t.Fatalf("round %d call %d: Err %v, reference %v", round, c, g, w)
			}
		}
		g, w := got.Flush(), want.Flush()
		agree(t, fmt.Sprintf("round %d", round), gs, ws, g, w)
	}
}

// TestWritersCrossTheDrainAtEveryPhase walks the buffered length up to the
// drain with every bit phase and every call width across it, where a word
// store could run past the buffer or a drain drop a byte.
func TestWritersCrossTheDrainAtEveryPhase(t *testing.T) {
	for phase := uint(0); phase < 8; phase++ {
		for width := uint(1); width <= maxBitsPerCall; width++ {
			gl, wl := &sink{budget: -1}, &sink{budget: -1}
			gm, wm := &sink{budget: -1}, &sink{budget: -1}
			lsb, rlsb := NewLSBWriter(gl), &referenceLSBWriter{w: wl}
			msb, rmsb := NewMSBWriter(gm), &referenceMSBWriter{w: wm}
			write := func(v uint64, n uint) {
				lsb.WriteBits(v, n)
				rlsb.WriteBits(v, n)
				msb.WriteBits(v, n)
				rmsb.WriteBits(v, n)
			}
			write(0x55, phase)
			for i := 0; i < writerBuf-16; i++ {
				write(uint64(i)*0x9E37, 8)
			}
			for i := 0; i < 12; i++ {
				write(0xA5A5A5A5A5A5A5A5+uint64(i), width)
				if i == 5 {
					lsb.Align() // a pad byte may be the one that fills the buffer
					rlsb.Align()
				}
			}
			agree(t, fmt.Sprintf("LSB phase %d width %d", phase, width), gl, wl, lsb.Flush(), rlsb.Flush())
			agree(t, fmt.Sprintf("MSB phase %d width %d", phase, width), gm, wm, msb.Flush(), rmsb.Flush())
		}
	}
}
