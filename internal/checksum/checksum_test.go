package checksum

import (
	"bytes"
	"hash/adler32"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

// The stdlib hashes serve as reference oracles for our from-scratch
// implementations; the codecs themselves use only this package.

// crc32Poly is the reversed (reflected) IEEE 802.3 polynomial.
const crc32Poly = 0xEDB88320

// refUpdateCRC32 is CRC-32 a bit at a time, the definition every faster
// one is built from: the oracle UpdateCRC32 is held to.
func refUpdateCRC32(crc uint32, p []byte) uint32 {
	crc = ^crc
	for _, b := range p {
		crc ^= uint32(b)
		for k := 0; k < 8; k++ {
			crc = crc>>1 ^ crc32Poly&-(crc&1)
		}
	}
	return ^crc
}

func TestCRC32KnownVectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint32
	}{
		{"", 0x00000000},
		{"a", 0xE8B7BE43},
		{"abc", 0x352441C2},
		{"123456789", 0xCBF43926},
		{"The quick brown fox jumps over the lazy dog", 0x414FA339},
	}
	for _, c := range cases {
		if got := CRC32([]byte(c.in)); got != c.want {
			t.Errorf("CRC32(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestAdler32KnownVectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint32
	}{
		{"", 0x00000001},
		{"a", 0x00620062},
		{"abc", 0x024D0127},
		{"Wikipedia", 0x11E60398},
	}
	for _, c := range cases {
		if got := Adler32([]byte(c.in)); got != c.want {
			t.Errorf("Adler32(%q) = %#x, want %#x", c.in, got, c.want)
		}
	}
}

func TestCRC32MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		n := rng.Intn(10000)
		p := make([]byte, n)
		rng.Read(p)
		// The package, the from-scratch oracle and the stdlib's one-shot
		// entry point: three routes to one value.
		if got, ref, want := CRC32(p), refUpdateCRC32(0, p), crc32.ChecksumIEEE(p); got != want || ref != want {
			t.Fatalf("len %d: got %#x, from scratch %#x, want %#x", n, got, ref, want)
		}
	}
}

// FuzzCRC32MatchesReference holds UpdateCRC32 to the from-scratch oracle:
// in one shot, chained across a split point (so each piece starts and ends
// at any alignment and the second starts from a running value), and on an
// unaligned tail of the same buffer.
func FuzzCRC32MatchesReference(f *testing.F) {
	f.Add([]byte(""), uint16(0), uint8(0))
	f.Add([]byte("123456789"), uint16(4), uint8(1))
	f.Add(bytes.Repeat([]byte("handheld"), 40), uint16(129), uint8(7))
	f.Fuzz(func(t *testing.T, p []byte, split uint16, skip uint8) {
		want := refUpdateCRC32(0, p)
		if got := CRC32(p); got != want {
			t.Fatalf("one shot: got %#x, from scratch %#x", got, want)
		}
		cut := 0
		if len(p) > 0 {
			cut = int(split) % (len(p) + 1)
		}
		if got := UpdateCRC32(UpdateCRC32(0, p[:cut]), p[cut:]); got != want {
			t.Fatalf("chained at %d of %d: got %#x, from scratch %#x", cut, len(p), got, want)
		}
		if got := UpdateCRC32(UpdateCRC32(UpdateCRC32(0, p[:cut]), nil), p[cut:]); got != want {
			t.Fatalf("chained at %d through an empty piece: got %#x, from scratch %#x", cut, got, want)
		}
		tail := p[min(int(skip)%16, len(p)):]
		if got, want := UpdateCRC32(0xDEADBEEF, tail), refUpdateCRC32(0xDEADBEEF, tail); got != want {
			t.Fatalf("tail from %d, running value: got %#x, from scratch %#x", len(p)-len(tail), got, want)
		}
	})
}

func TestAdler32MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		n := rng.Intn(20000)
		p := make([]byte, n)
		rng.Read(p)
		if got, want := Adler32(p), adler32.Checksum(p); got != want {
			t.Fatalf("len %d: got %#x want %#x", n, got, want)
		}
	}
}

func TestQuickIncrementalCRCEqualsOneShot(t *testing.T) {
	f := func(a, b []byte) bool {
		inc := UpdateCRC32(UpdateCRC32(0, a), b)
		all := CRC32(append(append([]byte{}, a...), b...))
		return inc == all
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIncrementalAdlerEqualsOneShot(t *testing.T) {
	f := func(a, b []byte) bool {
		inc := UpdateAdler32(UpdateAdler32(1, a), b)
		all := Adler32(append(append([]byte{}, a...), b...))
		return inc == all
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCRCDetectsSingleBitFlip(t *testing.T) {
	p := bytes.Repeat([]byte("energy"), 100)
	orig := CRC32(p)
	for i := 0; i < len(p); i += 37 {
		p[i] ^= 0x10
		if CRC32(p) == orig {
			t.Fatalf("bit flip at %d not detected", i)
		}
		p[i] ^= 0x10
	}
}

func TestAdlerLongInputNoOverflow(t *testing.T) {
	p := bytes.Repeat([]byte{0xff}, 1<<20)
	if got, want := Adler32(p), adler32.Checksum(p); got != want {
		t.Fatalf("got %#x want %#x", got, want)
	}
}

func BenchmarkCRC32(b *testing.B) {
	p := make([]byte, 64*1024)
	rand.New(rand.NewSource(3)).Read(p)
	b.SetBytes(int64(len(p)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CRC32(p)
	}
}

func BenchmarkAdler32(b *testing.B) {
	p := make([]byte, 64*1024)
	rand.New(rand.NewSource(4)).Read(p)
	b.SetBytes(int64(len(p)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Adler32(p)
	}
}
