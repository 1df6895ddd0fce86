package flate

import (
	"bytes"
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

var errTruncatedHeader = fmt.Errorf("%w: truncated gzip header: %v", ErrCorrupt, io.ErrUnexpectedEOF)

// skipGzipHeader reads the member header at the start of data and returns
// the offset of the body behind it. It accepts the headers compress/gzip
// accepts: a header string is bounded and a header CRC, when announced,
// must match.
func skipGzipHeader(data []byte) (int, error) {
	const flgFHCRC, flgFEXTRA, flgFNAME, flgFCOMMENT = 1 << 1, 1 << 2, 1 << 3, 1 << 4
	if len(data) < gzipHdrLen {
		return 0, errTruncatedHeader
	}
	if data[0] != gzipID1 || data[1] != gzipID2 {
		return 0, fmt.Errorf("%w: bad gzip magic", ErrCorrupt)
	}
	if data[2] != gzipCM {
		return 0, fmt.Errorf("%w: unsupported gzip method %d", ErrCorrupt, data[2])
	}
	flg, pos := data[3], gzipHdrLen
	if flg&flgFEXTRA != 0 {
		if pos+2 > len(data) {
			return 0, errTruncatedHeader
		}
		pos += 2 + int(binary.LittleEndian.Uint16(data[pos:]))
		if pos > len(data) {
			return 0, errTruncatedHeader
		}
	}
	for _, field := range []byte{flgFNAME, flgFCOMMENT} {
		if flg&field == 0 {
			continue
		}
		const most = 512 // compress/gzip's bound, the terminating zero included
		rest := data[pos:]
		n := bytes.IndexByte(rest[:min(len(rest), most)], 0)
		switch {
		case n >= 0:
			pos += n + 1
		case len(rest) >= most:
			return 0, fmt.Errorf("%w: gzip header string too long", ErrCorrupt)
		default:
			return 0, errTruncatedHeader
		}
	}
	if flg&flgFHCRC != 0 {
		if pos+2 > len(data) {
			return 0, errTruncatedHeader
		}
		if binary.LittleEndian.Uint16(data[pos:]) != uint16(checksum.CRC32(data[:pos])) {
			return 0, fmt.Errorf("%w: gzip header CRC mismatch", ErrCorrupt)
		}
		pos += 2
	}
	return pos, nil
}

// GzipCompress compresses data into a single-member gzip stream at the given
// level (1-9), as `gzip -N` would.
func GzipCompress(data []byte, level int) ([]byte, error) {
	if err := validateLevel(level); err != nil {
		return nil, err
	}
	hdr := gzipHeader(level)
	var buf [gzipTrailLen]byte
	trailer := appendGzipTrailer(buf[:0], checksum.CRC32(data), uint32(len(data)))
	return deflateBetween(hdr[:], trailer, data, level)
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

// GzipDecompressAppend decodes a single-member gzip stream onto the end of
// dst (which may be nil or recycled from a pool), verifying the CRC-32 and
// ISIZE trailer against the appended bytes alone; maxSize, if positive,
// bounds them. The output grows with what is inflated: the trailer's
// ISIZE is checked, never trusted as a size.
func GzipDecompressAppend(dst, data []byte, maxSize int) ([]byte, error) {
	pos, err := skipGzipHeader(data)
	if err != nil {
		return nil, err
	}
	if pos+gzipTrailLen > len(data) {
		return nil, fmt.Errorf("%w: gzip stream too short", ErrCorrupt)
	}
	body := data[pos : len(data)-gzipTrailLen]
	trailer := data[len(data)-gzipTrailLen:]
	base := len(dst)
	out, err := Inflate(dst, body, maxSize)
	if err != nil {
		return nil, err
	}
	if err := checkGzipTrailer(trailer, checksum.CRC32(out[base:]), uint32(len(out)-base)); err != nil {
		return nil, err
	}
	return out, nil
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
	var trailer [zlibTrailLen]byte
	binary.BigEndian.PutUint32(trailer[:], checksum.Adler32(data))
	return deflateBetween([]byte{cmf, flg}, trailer[:], data, level)
}

// ZlibDecompressAppend decodes a zlib stream onto the end of dst (which
// may be nil or recycled from a pool), verifying the Adler-32 trailer
// against the appended bytes alone; maxSize, if positive, bounds them.
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
	out, err := Inflate(dst, body, maxSize)
	if err != nil {
		return nil, err
	}
	want := binary.BigEndian.Uint32(data[len(data)-zlibTrailLen:])
	if checksum.Adler32(out[base:]) != want {
		return nil, fmt.Errorf("%w: adler32 mismatch", ErrCorrupt)
	}
	return out, nil
}
