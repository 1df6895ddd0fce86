package flate

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/checksum"
)

// gzip container constants (RFC 1952).
const (
	gzipID1      = 0x1f
	gzipID2      = 0x8b
	gzipCM       = 8 // deflate
	gzipOSUnix   = 3
	gzipXFLBest  = 2
	gzipXFLFast  = 4
	gzipHdrLen   = 10
	gzipTrailLen = 8
)

// skipGzipHeader consumes one member header from next, which hands out the
// stream's bytes in order. GzipDecompress and the Reader read their header
// through it, so they accept the same headers, and the ones compress/gzip
// accepts: a header string is bounded and a header CRC, when announced, must
// match.
func skipGzipHeader(next func() (byte, error)) error {
	const flgFHCRC, flgFEXTRA, flgFNAME, flgFCOMMENT = 1 << 1, 1 << 2, 1 << 3, 1 << 4
	// announced collects the header's bytes once its flags announce a CRC
	// of them, which ours never do: summing every header a byte at a time
	// would hand hash/crc32 a buffer it moves to the heap, once per block.
	var announced []byte
	var err error
	read := func() byte { // sticky: after an error every read is 0, and it is reported last
		if err == nil {
			var b byte
			if b, err = next(); err == nil {
				if announced != nil {
					announced = append(announced, b)
				}
				return b
			}
		}
		return 0
	}
	var fixed [gzipHdrLen]byte
	for i := range fixed {
		fixed[i] = read()
	}
	if err == nil && (fixed[0] != gzipID1 || fixed[1] != gzipID2) {
		return fmt.Errorf("%w: bad gzip magic", ErrCorrupt)
	}
	if err == nil && fixed[2] != gzipCM {
		return fmt.Errorf("%w: unsupported gzip method %d", ErrCorrupt, fixed[2])
	}
	flg := fixed[3]
	if flg&flgFHCRC != 0 {
		announced = append(announced, fixed[:]...)
	}
	if flg&flgFEXTRA != 0 {
		for n := int(read()) | int(read())<<8; n > 0 && err == nil; n-- {
			read()
		}
	}
	for _, field := range []byte{flgFNAME, flgFCOMMENT} {
		if flg&field == 0 {
			continue
		}
		for n := 0; read() != 0; n++ {
			if n == 511 { // compress/gzip's bound
				return fmt.Errorf("%w: gzip header string too long", ErrCorrupt)
			}
		}
	}
	if flg&flgFHCRC != 0 {
		want := uint16(checksum.CRC32(announced))
		if got := uint16(read()) | uint16(read())<<8; err == nil && got != want {
			return fmt.Errorf("%w: gzip header CRC mismatch", ErrCorrupt)
		}
	}
	if err != nil {
		return fmt.Errorf("%w: truncated gzip header: %v", ErrCorrupt, err)
	}
	return nil
}

// GzipCompress compresses data into a single-member gzip stream at the given
// level (1-9), as `gzip -N` would.
func GzipCompress(data []byte, level int) ([]byte, error) {
	if err := validateLevel(level); err != nil {
		return nil, err
	}
	hdr := gzipHeader(level)
	b := make([]byte, 0, gzipHdrLen+deflateSizeHint(len(data))+gzipTrailLen)
	out := sliceWriter{b: append(b, hdr[:]...)}
	if _, err := Deflate(&out, data, level); err != nil {
		return nil, err
	}
	return appendGzipTrailer(out.b, checksum.CRC32(data), uint32(len(data))), nil
}

// gzipHeader is the member header both compressors write: no flags, MTIME 0
// (deterministic output), XFL from the level.
func gzipHeader(level int) [gzipHdrLen]byte {
	hdr := [gzipHdrLen]byte{0: gzipID1, 1: gzipID2, 2: gzipCM, 9: gzipOSUnix}
	switch level {
	case 9:
		hdr[8] = gzipXFLBest
	case 1:
		hdr[8] = gzipXFLFast
	}
	return hdr
}

// appendGzipTrailer appends a member's trailer: the CRC-32 and the length
// mod 2^32 of what it decodes to.
func appendGzipTrailer(dst []byte, crc, size uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(dst, crc), size)
}

// checkGzipTrailer holds a member's trailer to the CRC-32 and length of
// what it decoded to.
func checkGzipTrailer(trailer []byte, crc, size uint32) error {
	if binary.LittleEndian.Uint32(trailer[0:4]) != crc {
		return fmt.Errorf("%w: gzip CRC mismatch", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(trailer[4:8]) != size {
		return fmt.Errorf("%w: gzip ISIZE mismatch", ErrCorrupt)
	}
	return nil
}

// maxTrailerPrealloc caps how much the decompressors pre-reserve from the
// (unverified) ISIZE trailer field, so a forged trailer cannot force a
// large allocation up front.
const maxTrailerPrealloc = 1 << 20

// GzipDecompress decompresses a single-member gzip stream, verifying the
// CRC-32 and ISIZE trailer. maxSize, if positive, bounds the output size.
func GzipDecompress(data []byte, maxSize int) ([]byte, error) {
	return GzipDecompressAppend(nil, data, maxSize)
}

// GzipDecompressAppend is GzipDecompress appending to dst (which may be nil
// or recycled from a pool), pre-reserving capacity from the ISIZE trailer
// field clamped to maxSize and maxTrailerPrealloc. It returns the extended
// slice; only the appended bytes are checksummed.
func GzipDecompressAppend(dst, data []byte, maxSize int) ([]byte, error) {
	pos := 0
	if err := skipGzipHeader(func() (byte, error) {
		if pos == len(data) {
			return 0, io.ErrUnexpectedEOF
		}
		pos++
		return data[pos-1], nil
	}); err != nil {
		return nil, err
	}
	if pos+gzipTrailLen > len(data) {
		return nil, fmt.Errorf("%w: gzip stream too short", ErrCorrupt)
	}
	body := data[pos : len(data)-gzipTrailLen]
	trailer := data[len(data)-gzipTrailLen:]
	// ISIZE is read ahead of its check, as a hint of how much room to make.
	dst = reserve(dst, int(binary.LittleEndian.Uint32(trailer[4:8])), maxSize)
	base := len(dst)
	out, err := Inflate(dst, bytesReader(body), maxSize)
	if err != nil {
		return nil, err
	}
	if err := checkGzipTrailer(trailer, checksum.CRC32(out[base:]), uint32(len(out)-base)); err != nil {
		return nil, err
	}
	return out, nil
}

// reserve grows dst's spare capacity toward hint, clamped by maxSize and
// maxTrailerPrealloc. The hint comes from untrusted trailer bytes, so it is
// an optimization only — never a trusted size.
func reserve(dst []byte, hint, maxSize int) []byte {
	if hint <= 0 {
		return dst
	}
	if maxSize > 0 && hint > maxSize {
		hint = maxSize
	}
	if hint > maxTrailerPrealloc {
		hint = maxTrailerPrealloc
	}
	if cap(dst)-len(dst) >= hint {
		return dst
	}
	grown := make([]byte, len(dst), len(dst)+hint)
	copy(grown, dst)
	return grown
}

// zlib container constants (RFC 1950).
const (
	zlibCMFDeflate32K = 0x78
	zlibTrailLen      = 4
)

// ZlibCompress compresses data into a zlib stream at the given level, as
// zlib 1.1.3's compress2 would.
func ZlibCompress(data []byte, level int) ([]byte, error) {
	if err := validateLevel(level); err != nil {
		return nil, err
	}
	cmf := byte(zlibCMFDeflate32K)
	var flevel byte
	switch {
	case level >= 7:
		flevel = 3
	case level >= 5:
		flevel = 2
	case level >= 2:
		flevel = 1
	}
	flg := flevel << 6
	rem := (uint16(cmf)<<8 | uint16(flg)) % 31
	if rem != 0 {
		flg += byte(31 - rem)
	}
	b := make([]byte, 0, 2+deflateSizeHint(len(data))+zlibTrailLen)
	out := sliceWriter{b: append(b, cmf, flg)}
	if _, err := Deflate(&out, data, level); err != nil {
		return nil, err
	}
	var trailer [zlibTrailLen]byte
	binary.BigEndian.PutUint32(trailer[:], checksum.Adler32(data))
	return append(out.b, trailer[:]...), nil
}

// ZlibDecompress decompresses a zlib stream, verifying the Adler-32 trailer.
func ZlibDecompress(data []byte, maxSize int) ([]byte, error) {
	return ZlibDecompressAppend(nil, data, maxSize)
}

// ZlibDecompressAppend is ZlibDecompress appending to dst (which may be nil
// or recycled from a pool). zlib carries no size hint, so capacity grows on
// demand; only the appended bytes are checksummed.
func ZlibDecompressAppend(dst, data []byte, maxSize int) ([]byte, error) {
	if len(data) < 2+zlibTrailLen {
		return nil, fmt.Errorf("%w: zlib stream too short", ErrCorrupt)
	}
	cmf, flg := data[0], data[1]
	if cmf&0x0f != 8 {
		return nil, fmt.Errorf("%w: unsupported zlib method %d", ErrCorrupt, cmf&0x0f)
	}
	if (uint16(cmf)<<8|uint16(flg))%31 != 0 {
		return nil, fmt.Errorf("%w: zlib header check failed", ErrCorrupt)
	}
	if flg&0x20 != 0 {
		return nil, fmt.Errorf("%w: preset dictionaries unsupported", ErrCorrupt)
	}
	body := data[2 : len(data)-zlibTrailLen]
	base := len(dst)
	out, err := Inflate(dst, bytesReader(body), maxSize)
	if err != nil {
		return nil, err
	}
	want := binary.BigEndian.Uint32(data[len(data)-zlibTrailLen:])
	if checksum.Adler32(out[base:]) != want {
		return nil, fmt.Errorf("%w: adler32 mismatch", ErrCorrupt)
	}
	return out, nil
}
