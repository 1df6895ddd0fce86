package bitio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestLSBWriteRead(t *testing.T) {
	var buf bytes.Buffer
	w := NewLSBWriter(&buf)
	w.WriteBits(0b101, 3)
	w.WriteBits(0b11111111, 8)
	w.WriteBits(0, 5)
	w.WriteBits(0x1234, 16)
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	r := NewLSBReader(&buf)
	if got := r.ReadBits(3); got != 0b101 {
		t.Errorf("got %b, want 101", got)
	}
	if got := r.ReadBits(8); got != 0xff {
		t.Errorf("got %x, want ff", got)
	}
	if got := r.ReadBits(5); got != 0 {
		t.Errorf("got %x, want 0", got)
	}
	if got := r.ReadBits(16); got != 0x1234 {
		t.Errorf("got %x, want 1234", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("err: %v", err)
	}
}

func TestMSBWriteRead(t *testing.T) {
	w := NewMSBWriter(nil)
	w.WriteBits(0b1, 1)
	w.WriteBits(0b0110, 4)
	w.WriteBits(0xABC, 12)
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	r := NewMSBReader(w.Bytes())
	if got := r.ReadBits(1); got != 1 {
		t.Errorf("bit: got %d", got)
	}
	if got := r.ReadBits(4); got != 0b0110 {
		t.Errorf("got %b", got)
	}
	if got := r.ReadBits(12); got != 0xABC {
		t.Errorf("got %x", got)
	}
}

func TestMSBFirstBitIsHighBitOfByte(t *testing.T) {
	w := NewMSBWriter(nil)
	w.WriteBits(1, 1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Bytes()[0] != 0x80 {
		t.Errorf("msb-first single 1 bit should give 0x80, got %#x", w.Bytes()[0])
	}
}

func TestLSBFirstBitIsLowBitOfByte(t *testing.T) {
	var buf bytes.Buffer
	w := NewLSBWriter(&buf)
	w.WriteBits(1, 1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[0] != 0x01 {
		t.Errorf("lsb-first single 1 bit should give 0x01, got %#x", buf.Bytes()[0])
	}
}

func TestLSBAlign(t *testing.T) {
	var buf bytes.Buffer
	w := NewLSBWriter(&buf)
	w.WriteBits(1, 1)
	w.Align()
	w.WriteBits(0xAA, 8)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []byte{0x01, 0xAA}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("got %x, want %x", buf.Bytes(), want)
	}
	r := NewLSBReader(&buf)
	r.ReadBits(1)
	r.Align()
	if got := r.ReadBits(8); got != 0xAA {
		t.Errorf("after align got %x", got)
	}
}

func TestLSBWriteBytes(t *testing.T) {
	var buf bytes.Buffer
	w := NewLSBWriter(&buf)
	w.WriteBits(3, 2)
	w.Align()
	w.WriteBytes([]byte{1, 2, 3})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []byte{0x03, 1, 2, 3}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("got %x want %x", buf.Bytes(), want)
	}
}

func TestLSBWriteBytesUnaligned(t *testing.T) {
	w := NewLSBWriter(io.Discard)
	w.WriteBits(1, 1)
	w.WriteBytes([]byte{1})
	if w.Err() == nil {
		t.Fatal("expected error writing bytes unaligned")
	}
}

func TestReadPastEOF(t *testing.T) {
	r := NewLSBReader(bytes.NewReader([]byte{0xff}))
	r.ReadBits(8)
	r.ReadBits(1)
	if r.Err() == nil {
		t.Fatal("expected error reading past EOF")
	}
	m := NewMSBReader([]byte{0xff})
	m.ReadBits(8)
	m.ReadBits(1)
	if m.Err() == nil {
		t.Fatal("expected error reading past EOF (msb)")
	}
}

func TestBitOverflow(t *testing.T) {
	w := NewLSBWriter(io.Discard)
	w.WriteBits(0, 58)
	if !errors.Is(w.Err(), ErrBitOverflow) {
		t.Fatalf("want ErrBitOverflow, got %v", w.Err())
	}
	r := NewLSBReader(bytes.NewReader(make([]byte, 16)))
	r.ReadBits(58)
	if !errors.Is(r.Err(), ErrBitOverflow) {
		t.Fatalf("want ErrBitOverflow, got %v", r.Err())
	}
}

func TestAtEOF(t *testing.T) {
	r := NewLSBReader(bytes.NewReader([]byte{0xff}))
	if r.AtEOF() {
		t.Fatal("AtEOF before reading")
	}
	r.ReadBits(8)
	if !r.AtEOF() {
		t.Fatal("expected AtEOF after consuming all bits")
	}
}

// quickSeq is a sequence of (value, width) pairs used by the round-trip
// properties.
type quickSeq struct {
	vals   []uint64
	widths []uint
}

func genSeq(r *rand.Rand) quickSeq {
	n := r.Intn(200) + 1
	s := quickSeq{vals: make([]uint64, n), widths: make([]uint, n)}
	for i := 0; i < n; i++ {
		w := uint(r.Intn(57) + 1)
		s.widths[i] = w
		s.vals[i] = r.Uint64() & ((1 << w) - 1)
	}
	return s
}

func TestQuickLSBRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		s := genSeq(rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		w := NewLSBWriter(&buf)
		for i, v := range s.vals {
			w.WriteBits(v, s.widths[i])
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewLSBReader(&buf)
		for i, want := range s.vals {
			if got := r.ReadBits(s.widths[i]); got != want {
				return false
			}
		}
		return r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMSBRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		s := genSeq(rand.New(rand.NewSource(seed)))
		w := NewMSBWriter(nil)
		for i, v := range s.vals {
			w.WriteBits(v, s.widths[i])
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewMSBReader(w.Bytes())
		for i, want := range s.vals {
			if got := r.ReadBits(s.widths[i]); got != want {
				return false
			}
		}
		return r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

type failWriter struct{ calls int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.calls++
	return 0, errors.New("boom")
}

// TestWriterPropagatesError: a writer made by NewLSBWriter hands its
// stream to its io.Writer in one Write, at Flush, and that Write's error
// is sticky.
func TestWriterPropagatesError(t *testing.T) {
	fw := new(failWriter)
	w := NewLSBWriter(fw)
	for i := 0; i < 10000; i++ {
		w.WriteBits(0xff, 8)
	}
	if err := w.Flush(); err == nil || fw.calls != 1 {
		t.Fatalf("Flush: %v after %d writes, want the one Write's error", err, fw.calls)
	}
	if w.WriteBits(1, 1); w.Flush() == nil || fw.calls != 1 {
		t.Fatal("the error is not sticky")
	}
}

func TestMSBReadBitSequence(t *testing.T) {
	r := NewMSBReader([]byte{0b10110100})
	want := []uint64{1, 0, 1, 1, 0, 1, 0, 0}
	for i, w := range want {
		if got := r.ReadBits(1); got != w {
			t.Fatalf("bit %d: got %d want %d", i, got, w)
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestLSBReadBytesAfterBits(t *testing.T) {
	r := NewLSBReader(bytes.NewReader([]byte{0xAB, 0x01, 0x02, 0x03}))
	if got := r.ReadBits(8); got != 0xAB {
		t.Fatalf("got %x", got)
	}
	buf := make([]byte, 3)
	if err := r.ReadBytes(buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Fatalf("got %v", buf)
	}
	// Reading past the end must error.
	if err := r.ReadBytes(make([]byte, 1)); err == nil {
		t.Fatal("read past end accepted")
	}
}

func TestLSBReadBytesUnaligned(t *testing.T) {
	r := NewLSBReader(bytes.NewReader([]byte{0xFF, 0xFF}))
	r.ReadBits(3)
	if err := r.ReadBytes(make([]byte, 1)); err == nil {
		t.Fatal("unaligned ReadBytes accepted")
	}
}

// TestMSBWriterErr: a refused call's error is sticky, and nothing is
// written after it.
func TestMSBWriterErr(t *testing.T) {
	w := NewMSBWriter([]byte{7})
	w.WriteBits(0x55, 8)
	w.WriteBits(0, 58)
	w.WriteBits(0x55, 8)
	if w.Err() != ErrBitOverflow || w.Flush() != ErrBitOverflow || !bytes.Equal(w.Bytes(), []byte{7, 0x55}) {
		t.Fatalf("after a refused call: Err %v, bytes %x", w.Err(), w.Bytes())
	}
}

// TestPeekConsumeMatchesReadBits reads one random stream twice through each
// reader — value by value with ReadBits, and the way the table-driven
// decoders do, peeking a fixed window and consuming what a value used — and
// over-consumes at the end.
func TestPeekConsumeMatchesReadBits(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	seq := make([]uint, 20000)
	vals := make([]uint64, len(seq))
	var lw LSBWriter
	var mw MSBWriter
	for i := range seq {
		seq[i] = uint(1 + rng.Intn(24))
		vals[i] = rng.Uint64() & (1<<seq[i] - 1)
		lw.WriteBits(vals[i], seq[i])
		mw.WriteBits(vals[i], seq[i])
	}
	if lw.Flush() != nil || mw.Flush() != nil {
		t.Fatal("flush failed")
	}
	type reader interface {
		ReadBits(uint) uint64
		PeekBits(uint) uint64
		Consume(uint)
		Err() error
	}
	for name, r := range map[string]reader{
		"LSB": NewLSBReader(bytes.NewReader(lw.Bytes())),
		"MSB": NewMSBReader(mw.Bytes()),
	} {
		for i, n := range seq {
			var got uint64
			switch {
			case i%2 == 0:
				got = r.ReadBits(n)
			case name == "LSB":
				got = r.PeekBits(24) & (1<<n - 1)
				r.Consume(n)
			default:
				got = r.PeekBits(24) >> (24 - n)
				r.Consume(n)
			}
			if got != vals[i] {
				t.Fatalf("%s value %d: got %#x want %#x", name, i, got, vals[i])
			}
		}
		if r.Err() != nil {
			t.Fatalf("%s: %v", name, r.Err())
		}
		r.PeekBits(57) // past the end: zero-padded, not an error
		if r.Err() != nil {
			t.Fatalf("%s: peeking past the end set %v", name, r.Err())
		}
		r.Consume(57)
		if r.Err() != io.ErrUnexpectedEOF {
			t.Fatalf("%s: consuming past the end: Err %v, want unexpected EOF", name, r.Err())
		}
	}
}

// TestBitsHandBack: a decode loop that borrows the LSB reader's state, tops
// the accumulator up from the buffer itself with whole 8-byte loads, takes
// values out and hands the state back leaves the reader where a ReadBits
// loop would have: the values after it, and the bytes after an Align, read
// on as written.
func TestBitsHandBack(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	seq := make([]uint, 5000)
	vals := make([]uint64, len(seq))
	var buf bytes.Buffer
	w := NewLSBWriter(&buf)
	for i := range seq {
		seq[i] = uint(1 + rng.Intn(13))
		vals[i] = rng.Uint64() & (1<<seq[i] - 1)
		w.WriteBits(vals[i], seq[i])
	}
	w.Align()
	w.WriteBytes([]byte("tail"))
	if w.Flush() != nil {
		t.Fatal("flush failed")
	}
	r := NewLSBReader(bytes.NewReader(buf.Bytes()))
	for i := 0; i < len(seq); {
		for k := 0; k < 3 && i < len(seq); k, i = k+1, i+1 {
			if got := r.ReadBits(seq[i]); got != vals[i] {
				t.Fatalf("ReadBits value %d: got %#x want %#x", i, got, vals[i])
			}
		}
		acc, n, in, pos := r.Bits()
		if acc>>n != 0 && n < 64 {
			t.Fatalf("value %d: Bits lent an accumulator with bits above its count", i)
		}
		if n > 63 {
			continue
		}
		for k := 0; k < 5 && i < len(seq) && pos+8 <= len(in); k, i = k+1, i+1 {
			acc |= binary.LittleEndian.Uint64(in[pos:]) << n
			pos += int(63-n) >> 3
			n |= 56
			if got := acc & (1<<seq[i] - 1); got != vals[i] {
				t.Fatalf("borrowed state, value %d: got %#x want %#x", i, got, vals[i])
			}
			acc, n = acc>>seq[i], n-seq[i]
		}
		r.SetBits(acc, n, pos)
	}
	r.Align()
	tail := make([]byte, 4)
	if err := r.ReadBytes(tail); err != nil || string(tail) != "tail" {
		t.Fatalf("after the values: %q, err %v", tail, err)
	}
}

// TestMSBBitsHandBack is TestBitsHandBack for the MSB reader, borrowed the
// way the bzip2 symbol loop borrows it: the accumulator left-aligned,
// topped up with whole 8-byte big-endian loads while 8 bytes are left,
// values taken off the top. Afterwards ReadBits reads on as written: the
// values, a closing word, and nothing past the padding.
func TestMSBBitsHandBack(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	seq := make([]uint, 5000)
	vals := make([]uint64, len(seq))
	w := NewMSBWriter(nil)
	for i := range seq {
		seq[i] = uint(1 + rng.Intn(20))
		vals[i] = rng.Uint64() & (1<<seq[i] - 1)
		w.WriteBits(vals[i], seq[i])
	}
	w.WriteBits(0xdeadbeef, 32)
	if w.Flush() != nil {
		t.Fatal("flush failed")
	}
	r := NewMSBReader(w.Bytes())
	borrowed := 0
	for i := 0; i < len(seq); {
		for k := 0; k < 3 && i < len(seq); k, i = k+1, i+1 {
			if got := r.ReadBits(seq[i]); got != vals[i] {
				t.Fatalf("ReadBits value %d: got %#x want %#x", i, got, vals[i])
			}
		}
		acc, n, in, pos := r.Bits()
		if n < 64 && acc>>n != 0 {
			t.Fatalf("value %d: Bits lent an accumulator with bits above its count", i)
		}
		if n > 63 {
			continue
		}
		acc <<= 64 - n
		for k := 0; k < 5 && i < len(seq) && pos+8 <= len(in); k, i = k+1, i+1 {
			acc |= binary.BigEndian.Uint64(in[pos:]) >> n
			pos += int(63-n) >> 3
			n |= 56
			if got := acc >> (64 - seq[i]); got != vals[i] {
				t.Fatalf("borrowed state, value %d: got %#x want %#x", i, got, vals[i])
			}
			acc, n = acc<<seq[i], n-seq[i]
			borrowed++
		}
		r.SetBits(acc>>(64-n), n, pos)
	}
	if borrowed < len(seq)/2 {
		t.Fatalf("only %d of %d values were read on the borrowed state", borrowed, len(seq))
	}
	if got := r.ReadBits(32); got != 0xdeadbeef || r.Err() != nil {
		t.Fatalf("after the values: %#x, err %v", got, r.Err())
	}
	if r.ReadBits(8); r.Err() != io.ErrUnexpectedEOF {
		t.Fatalf("past the padding: err %v", r.Err())
	}
}

// TestReadersSurfaceSourceErrors: the end of a reader's slice ends the
// stream with unexpected EOF once a read needs bits it cannot supply —
// from ReadBits, Consume and ReadBytes, and never before. NewLSBReader
// reads its source whole, so a source that fails sets the sticky error
// from the start, and the bytes before the failure still read.
func TestReadersSurfaceSourceErrors(t *testing.T) {
	boom := errors.New("boom")
	failing := func() io.Reader {
		return io.MultiReader(bytes.NewReader([]byte{1, 2, 3}), iotest.ErrReader(boom))
	}
	l := NewLSBReader(failing())
	if l.ReadBits(24) != 0x030201 || l.Err() != boom {
		t.Fatalf("LSB: the bytes before the failure, Err %v, want the source's", l.Err())
	}
	if err := NewLSBReader(failing()).ReadBytes(make([]byte, 4)); err != boom {
		t.Fatalf("LSB ReadBytes: %v, want the source's", err)
	}

	var r LSBReader
	r.Reset([]byte{1, 2, 3})
	if r.ReadBits(24) != 0x030201 || r.Err() != nil {
		t.Fatalf("LSB: the bytes before the end: %v", r.Err())
	}
	if r.ReadBits(8); r.Err() != io.ErrUnexpectedEOF {
		t.Fatalf("LSB ReadBits: Err %v, want unexpected EOF", r.Err())
	}
	r.Reset([]byte{1, 2, 3})
	if r.PeekBits(32) != 0x030201 || r.Err() != nil {
		t.Fatal("LSB: a short peek must zero-pad what is there and set no error")
	}
	if r.Consume(32); r.Err() != io.ErrUnexpectedEOF {
		t.Fatalf("LSB Consume: Err %v, want unexpected EOF", r.Err())
	}
	r.Reset([]byte{1, 2, 3})
	if err := r.ReadBytes(make([]byte, 4)); err != io.ErrUnexpectedEOF || r.Err() != err {
		t.Fatalf("LSB ReadBytes: %v, want unexpected EOF", err)
	}
	r.Reset([]byte{1})
	if r.ReadBits(8); !r.AtEOF() || r.Err() != nil {
		t.Fatalf("LSB: not at EOF after the last byte (Err %v)", r.Err())
	}
	if r.ReadBits(58); r.Err() != ErrBitOverflow {
		t.Fatalf("LSB: 58 bits: Err %v", r.Err())
	}

	// The MSB reader reads a slice in place: its end is the only failure.
	m := NewMSBReader([]byte{1, 2, 3})
	if m.ReadBits(24) != 0x010203 || m.Err() != nil {
		t.Fatalf("MSB: the bytes before the end: %v", m.Err())
	}
	if m.ReadBits(8); m.Err() != io.ErrUnexpectedEOF {
		t.Fatalf("MSB ReadBits: Err %v, want unexpected EOF", m.Err())
	}
	m = NewMSBReader([]byte{1, 2, 3})
	if m.PeekBits(32) != 0x01020300 || m.Err() != nil {
		t.Fatal("MSB: a short peek must left-align what is there and set no error")
	}
	if m.Consume(32); m.Err() != io.ErrUnexpectedEOF {
		t.Fatalf("MSB Consume: Err %v, want unexpected EOF", m.Err())
	}
	m = NewMSBReader([]byte{1})
	if m.ReadBits(0) != 0 || m.Err() != nil {
		t.Fatal("MSB: reading no bits")
	}
	if m.ReadBits(16); m.Err() != io.ErrUnexpectedEOF {
		t.Fatalf("MSB past a short slice: Err %v", m.Err())
	}
	if m = NewMSBReader([]byte{1}); m.ReadBits(58) != 0 || m.Err() != ErrBitOverflow {
		t.Fatalf("MSB: 58 bits: Err %v", m.Err())
	}
}
