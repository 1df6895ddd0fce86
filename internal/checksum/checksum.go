// Package checksum computes the two checksums of the gzip and zlib container
// formats this repository's codecs produce, and of the proxy's block frames:
// Adler-32 from first principles, and CRC-32 (IEEE 802.3, reflected) by
// hash/crc32, which runs it on the carry-less-multiply unit where the
// machine has one. A bit-at-a-time CRC-32 in checksum_test.go is its
// oracle.
package checksum

import "hash/crc32"

// CRC32 computes the IEEE CRC-32 of p in one shot.
func CRC32(p []byte) uint32 {
	return UpdateCRC32(0, p)
}

// UpdateCRC32 extends crc with the bytes of p. A zero crc starts a new
// computation, so UpdateCRC32(UpdateCRC32(0, a), b) == CRC32(a || b).
func UpdateCRC32(crc uint32, p []byte) uint32 {
	return crc32.Update(crc, crc32.IEEETable, p)
}

// adlerMod is the largest prime smaller than 65536.
const adlerMod = 65521

// Adler32 computes the Adler-32 checksum of p in one shot.
func Adler32(p []byte) uint32 {
	return UpdateAdler32(1, p)
}

// UpdateAdler32 extends adler with the bytes of p. A value of 1 starts a new
// computation.
func UpdateAdler32(adler uint32, p []byte) uint32 {
	s1 := adler & 0xffff
	s2 := (adler >> 16) & 0xffff
	// Process in chunks small enough that s2 cannot overflow uint32:
	// 5552 is the standard zlib NMAX.
	const nmax = 5552
	for len(p) > 0 {
		chunk := p
		if len(chunk) > nmax {
			chunk = chunk[:nmax]
		}
		for _, b := range chunk {
			s1 += uint32(b)
			s2 += s1
		}
		s1 %= adlerMod
		s2 %= adlerMod
		p = p[len(chunk):]
	}
	return s2<<16 | s1
}
