// Package codec exposes the three universal lossless compression schemes
// the paper compares — gzip (LZ77/DEFLATE), compress (LZW) and bzip2 (BWT)
// — plus the zlib container used by its interleaving experiments. One
// table holds each scheme's levels and its two functions, and one Codec
// type dispatches through it: Compress, and DecompressAppend, every
// scheme's only decoder.
package codec

import (
	"fmt"

	"repro/internal/bwt"
	"repro/internal/flate"
	"repro/internal/lzw"
)

// Scheme identifies a compression scheme.
type Scheme int

// The schemes of the paper's Section 3, plus zlib (Section 4).
const (
	Gzip Scheme = iota + 1
	Compress
	Bzip2
	Zlib
)

// schemes is the table New reads: per scheme, its tool name, what its
// level counts, the levels it accepts, the paper's level (what level 0
// selects) and its two functions.
var schemes = [...]struct {
	name, unit       string
	lo, hi, paper    int
	compress         func(data []byte, level int) ([]byte, error)
	decompressAppend func(dst, data []byte, maxSize int) ([]byte, error)
}{
	Gzip:     {"gzip", "level", 1, 9, 9, flate.GzipCompress, flate.GzipDecompressAppend},
	Compress: {"compress", "bits", lzw.MinBits, lzw.MaxBits, lzw.MaxBits, lzw.Compress, lzw.DecompressAppend},
	Bzip2:    {"bzip2", "level", 1, 9, 9, bwt.Compress, bwt.DecompressAppend},
	Zlib:     {"zlib", "level", 1, 9, 9, flate.ZlibCompress, flate.ZlibDecompressAppend},
}

// String returns the tool name the paper uses for the scheme.
func (s Scheme) String() string {
	if s < Gzip || s > Zlib {
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
	return schemes[s].name
}

// ParseScheme is the inverse of String: the scheme a tool name names.
func ParseScheme(name string) (Scheme, error) {
	for s := Gzip; s <= Zlib; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q", name)
}

// Schemes lists the three schemes of the paper's three-way comparison.
func Schemes() []Scheme { return []Scheme{Gzip, Compress, Bzip2} }

// Codec compresses and decompresses byte buffers.
type Codec interface {
	// Scheme identifies the underlying algorithm family.
	Scheme() Scheme
	// Compress returns the compressed representation of data.
	Compress(data []byte) ([]byte, error)
	// DecompressAppend inverts Compress, appending the decoded bytes to dst
	// (nil, pooled, or the output decoded so far); maxSize, if positive,
	// bounds the appended bytes as a decompression-bomb guard. A call that
	// succeeds returns a non-nil slice, even for an empty stream; a failed
	// call returns nil and leaves dst[:len(dst)] as it was.
	DecompressAppend(dst, data []byte, maxSize int) ([]byte, error)
}

// codec is a scheme at a level; New hands out pointers into codecs, one
// per (scheme, level), so that making a codec allocates nothing.
type codec struct {
	scheme Scheme
	level  int
}

var codecs = func() (t [len(schemes)][lzw.MaxBits + 1]codec) {
	for s := range t {
		for l := range t[s] {
			t[s][l] = codec{Scheme(s), l}
		}
	}
	return t
}()

func (c *codec) Scheme() Scheme { return c.scheme }

func (c *codec) Compress(data []byte) ([]byte, error) {
	return schemes[c.scheme].compress(data, c.level)
}

func (c *codec) DecompressAppend(dst, data []byte, maxSize int) ([]byte, error) {
	return schemes[c.scheme].decompressAppend(dst, data, maxSize)
}

// New returns a codec for the scheme at the given effort level. Levels
// follow each tool's convention: 1-9 for gzip/zlib/bzip2, and code width
// 9-16 for compress ("-b N"). Level 0 selects the paper's setting for the
// scheme (gzip -9, compress -b 16, bzip2 -9).
func New(s Scheme, level int) (Codec, error) {
	if s < Gzip || s > Zlib {
		return nil, fmt.Errorf("codec: unknown scheme %d", int(s))
	}
	row := &schemes[s]
	if level == 0 {
		level = row.paper
	}
	if level < row.lo || level > row.hi {
		return nil, fmt.Errorf("codec: %s %s %d out of range", row.name, row.unit, level)
	}
	return &codecs[s][level], nil
}

// MustNew is New for statically valid arguments; it panics otherwise and is
// intended for initialisation paths.
func MustNew(s Scheme, level int) Codec {
	c, err := New(s, level)
	if err != nil {
		panic(err)
	}
	return c
}

// Factor returns the compression factor (input size over output size), the
// paper's headline per-file metric. A factor below 1 means expansion.
func Factor(rawSize, compSize int) float64 {
	if compSize <= 0 {
		return 0
	}
	return float64(rawSize) / float64(compSize)
}
