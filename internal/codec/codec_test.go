package codec

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestRoundTripAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	random := make([]byte, 30000)
	rng.Read(random)
	inputs := map[string][]byte{
		"empty":  nil,
		"text":   []byte(strings.Repeat("interface uniformity across schemes ", 1000)),
		"random": random,
	}
	for _, s := range []Scheme{Gzip, Compress, Bzip2, Zlib} {
		c, err := New(s, 0)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if c.Scheme() != s {
			t.Errorf("%v: Scheme() = %v", s, c.Scheme())
		}
		for name, data := range inputs {
			comp, err := c.Compress(data)
			if err != nil {
				t.Fatalf("%v %s: %v", s, name, err)
			}
			got, err := c.Decompress(comp, 0)
			if err != nil {
				t.Fatalf("%v %s: %v", s, name, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%v %s: round trip mismatch", s, name)
			}
		}
	}
}

func TestPaperDefaults(t *testing.T) {
	// Level 0 must select gzip -9 / compress -b16 / bzip2 -9 and behave
	// identically to the explicit settings.
	data := []byte(strings.Repeat("default level selection ", 500))
	pairs := []struct {
		s     Scheme
		level int
	}{{Gzip, 9}, {Compress, 16}, {Bzip2, 9}, {Zlib, 9}}
	for _, p := range pairs {
		def, err := New(p.s, 0)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := New(p.s, p.level)
		if err != nil {
			t.Fatal(err)
		}
		a, err := def.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		b, err := exp.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%v: default level differs from paper setting", p.s)
		}
	}
}

func TestInvalidLevels(t *testing.T) {
	cases := []struct {
		s     Scheme
		level int
	}{
		{Gzip, 10}, {Gzip, -1}, {Zlib, 11},
		{Compress, 8}, {Compress, 17},
		{Bzip2, 10}, {Scheme(99), 0},
	}
	for _, c := range cases {
		if _, err := New(c.s, c.level); err == nil {
			t.Errorf("New(%v, %d) accepted", c.s, c.level)
		}
	}
}

func TestFactor(t *testing.T) {
	if got := Factor(100, 50); got != 2 {
		t.Errorf("Factor(100,50) = %v", got)
	}
	if got := Factor(100, 0); got != 0 {
		t.Errorf("Factor with zero comp size = %v", got)
	}
	if got := Factor(50, 100); got != 0.5 {
		t.Errorf("Factor(50,100) = %v", got)
	}
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{Gzip: "gzip", Compress: "compress", Bzip2: "bzip2", Zlib: "zlib"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
}

// TestParseScheme round-trips every scheme through its name and refuses an
// unknown name with the text the commands have always printed.
func TestParseScheme(t *testing.T) {
	for _, s := range []Scheme{Gzip, Compress, Bzip2, Zlib} {
		if got, err := ParseScheme(s.String()); err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, name := range []string{"", "lzma", "GZIP", "Scheme(5)"} {
		_, err := ParseScheme(name)
		if want := fmt.Sprintf("unknown scheme %q", name); err == nil || err.Error() != want {
			t.Errorf("ParseScheme(%q) error %v, want %q", name, err, want)
		}
	}
}

// TestPaperOrderingOnText checks the paper's Table 2 shape: on compressible
// text, bzip2 achieves the highest factor and compress the lowest.
func TestPaperOrderingOnText(t *testing.T) {
	// Natural-language-like content with long-range structure.
	var sb strings.Builder
	words := []string{"energy", "compression", "wireless", "device", "proxy",
		"download", "battery", "the", "of", "and", "model", "scheme"}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 60000; i++ {
		sb.WriteString(words[rng.Intn(len(words))])
		sb.WriteByte(' ')
	}
	data := []byte(sb.String())
	factors := map[Scheme]float64{}
	for _, s := range Schemes() {
		c := MustNew(s, 0)
		comp, err := c.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		factors[s] = Factor(len(data), len(comp))
	}
	if !(factors[Bzip2] > factors[Gzip]) {
		t.Errorf("expected bzip2 factor (%.2f) > gzip (%.2f)", factors[Bzip2], factors[Gzip])
	}
	if !(factors[Gzip] > factors[Compress]) {
		t.Errorf("expected gzip factor (%.2f) > compress (%.2f)", factors[Gzip], factors[Compress])
	}
}
