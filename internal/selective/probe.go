package selective

import (
	"encoding/binary"
	"math"
)

// probeSegment is the stretch one order-0 histogram covers.
const probeSegment = 4096

// probeSampleShift keeps one string in 16 in the repeat sample.
const probeSampleShift = 64 - 4

// probeNLog2N[c] is c·log2(c): a histogram's order-0 entropy in bits is
// n·log2(n) − Σ c·log2(c).
var probeNLog2N = func() (t [probeSegment + 1]float32) {
	for c := 2; c <= probeSegment; c++ {
		t[c] = float32(float64(c) * math.Log2(float64(c)))
	}
	return t
}()

// probe returns an optimistic lower bound on the size any codec here could
// compress block to, from its bytes alone: 1 ("could be tiny") unless no
// sampled 8-byte string recurs and both the order-0 entropy over 4 KB
// segments and that of sampled byte-to-byte deltas (an alphabet drifting
// within a segment) exceed 7 bits a byte; then the lesser, less a tenth.
func probe(block []byte) int {
	// Strings whose hash has its top bits clear: chosen by content, a repeat
	// and its source are sampled alike whatever the alphabet. Random bytes
	// repeat an 8-byte string about once in 2^31 blocks.
	var seen [4096]uint64
	repeats := 0
	for b := block; len(b) >= 8; b = b[1:] {
		v := binary.LittleEndian.Uint64(b)
		if h := v * 0x9E3779B97F4A7C15; h>>probeSampleShift == 0 {
			slot := &seen[h>>(probeSampleShift-12)&4095]
			if *slot == v {
				if repeats++; repeats == 2 {
					return 1
				}
			}
			*slot = v
		}
	}
	bits, delta := 0.0, 0.0
	for off := 0; off < len(block); off += probeSegment {
		h := histogram(block[off:min(off+probeSegment, len(block))])
		bits += entropyBits(&h)
	}
	for off := 0; off < len(block); off += 8 * probeSegment {
		var d [256]uint32 // every eighth byte-to-byte delta of 32 KB
		for i := off + 1; i < min(off+8*probeSegment, len(block)); i += 8 {
			d[block[i]-block[i-1]]++
		}
		delta += 8 * entropyBits(&d)
	}
	if bits = min(bits, delta); bits < 7*float64(len(block)) {
		return 1
	}
	return int(bits / 8 * 0.9)
}

// histogram counts the bytes of seg.
func histogram(seg []byte) (h [256]uint32) {
	for _, c := range seg {
		h[c]++
	}
	return h
}

// entropyBits is the order-0 entropy, in bits, of the counts in h.
func entropyBits(h *[256]uint32) float64 {
	n, sum := uint32(0), float32(0)
	for _, c := range h {
		n += c
		sum += probeNLog2N[c]
	}
	return float64(probeNLog2N[n] - sum)
}
