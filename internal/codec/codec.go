// Package codec exposes the three universal lossless compression schemes
// the paper compares — gzip (LZ77/DEFLATE), compress (LZW) and bzip2 (BWT)
// — plus the zlib container used by its interleaving experiments, behind a
// single interface with a registry keyed by scheme.
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

// String returns the tool name the paper uses for the scheme.
func (s Scheme) String() string {
	switch s {
	case Gzip:
		return "gzip"
	case Compress:
		return "compress"
	case Bzip2:
		return "bzip2"
	case Zlib:
		return "zlib"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
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
	// Decompress inverts Compress. maxSize, if positive, bounds the output
	// size as a decompression-bomb guard.
	Decompress(data []byte, maxSize int) ([]byte, error)
	// DecompressAppend is Decompress appending to dst (nil, pooled, or the
	// output decoded so far); maxSize bounds the appended bytes. A failed
	// call returns nil and leaves dst[:len(dst)] as it was.
	DecompressAppend(dst, data []byte, maxSize int) ([]byte, error)
}

// New returns a codec for the scheme at the given effort level. Levels
// follow each tool's convention: 1-9 for gzip/zlib/bzip2, and code width
// 9-16 for compress ("-b N"). Level 0 selects the paper's setting for the
// scheme (gzip -9, compress -b 16, bzip2 -9).
func New(s Scheme, level int) (Codec, error) {
	switch s {
	case Gzip:
		if level == 0 {
			level = 9
		}
		if level < 1 || level > 9 {
			return nil, fmt.Errorf("codec: gzip level %d out of range", level)
		}
		return gzipCodec{level: level}, nil
	case Zlib:
		if level == 0 {
			level = 9
		}
		if level < 1 || level > 9 {
			return nil, fmt.Errorf("codec: zlib level %d out of range", level)
		}
		return zlibCodec{level: level}, nil
	case Compress:
		if level == 0 {
			level = lzw.MaxBits
		}
		if level < lzw.MinBits || level > lzw.MaxBits {
			return nil, fmt.Errorf("codec: compress bits %d out of range", level)
		}
		return lzwCodec{maxBits: level}, nil
	case Bzip2:
		if level == 0 {
			level = 9
		}
		if level < 1 || level > 9 {
			return nil, fmt.Errorf("codec: bzip2 level %d out of range", level)
		}
		return bzip2Codec{level: level}, nil
	default:
		return nil, fmt.Errorf("codec: unknown scheme %d", int(s))
	}
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

type gzipCodec struct{ level int }

var _ Codec = gzipCodec{}

func (gzipCodec) Scheme() Scheme { return Gzip }

func (c gzipCodec) Compress(data []byte) ([]byte, error) {
	return flate.GzipCompress(data, c.level)
}

func (gzipCodec) Decompress(data []byte, maxSize int) ([]byte, error) {
	return flate.GzipDecompress(data, maxSize)
}

func (gzipCodec) DecompressAppend(dst, data []byte, maxSize int) ([]byte, error) {
	return flate.GzipDecompressAppend(dst, data, maxSize)
}

type zlibCodec struct{ level int }

var _ Codec = zlibCodec{}

func (zlibCodec) Scheme() Scheme { return Zlib }

func (c zlibCodec) Compress(data []byte) ([]byte, error) {
	return flate.ZlibCompress(data, c.level)
}

func (zlibCodec) Decompress(data []byte, maxSize int) ([]byte, error) {
	return flate.ZlibDecompress(data, maxSize)
}

func (zlibCodec) DecompressAppend(dst, data []byte, maxSize int) ([]byte, error) {
	return flate.ZlibDecompressAppend(dst, data, maxSize)
}

type lzwCodec struct{ maxBits int }

var _ Codec = lzwCodec{}

func (lzwCodec) Scheme() Scheme { return Compress }

func (c lzwCodec) Compress(data []byte) ([]byte, error) {
	return lzw.Compress(data, c.maxBits)
}

func (lzwCodec) Decompress(data []byte, maxSize int) ([]byte, error) {
	return lzw.Decompress(data, maxSize)
}

func (lzwCodec) DecompressAppend(dst, data []byte, maxSize int) ([]byte, error) {
	return lzw.DecompressAppend(dst, data, maxSize)
}

type bzip2Codec struct{ level int }

var _ Codec = bzip2Codec{}

func (bzip2Codec) Scheme() Scheme { return Bzip2 }

func (c bzip2Codec) Compress(data []byte) ([]byte, error) {
	return bwt.Compress(data, c.level)
}

func (bzip2Codec) Decompress(data []byte, maxSize int) ([]byte, error) {
	return bwt.Decompress(data, maxSize)
}

func (bzip2Codec) DecompressAppend(dst, data []byte, maxSize int) ([]byte, error) {
	return bwt.DecompressAppend(dst, data, maxSize)
}
