package selective

import (
	"bytes"
	"encoding/binary"
	"math"
)

// probeSegment is the stretch one order-0 histogram covers.
const probeSegment = 4096

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
// sampled 4-byte string recurs and both the order-0 entropy over 4 KB
// segments and that of sampled byte-to-byte deltas (an alphabet drifting
// within a segment) exceed 7 bits a byte; then the lesser, less a tenth.
func probe(block []byte) int {
	// Strings at the first segment's commonest byte: chosen by content, a
	// repeat and its source are sampled alike, and a byte that mostly follows
	// its predecessor recurs. Random bytes repeat one in about 500 blocks.
	h := histogram(block[:min(probeSegment, len(block))])
	anchor := 0
	for b, c := range h {
		if c > h[anchor] {
			anchor = b
		}
	}
	var seen [1024]uint64
	for i, repeats := 0, 0; ; i++ {
		j := bytes.IndexByte(block[i:], byte(anchor))
		if j < 0 || i+j+4 > len(block) {
			break
		}
		i += j
		g := uint64(binary.LittleEndian.Uint32(block[i:])) | 1<<32
		slot := &seen[uint32(g)*0x9E3779B1>>22]
		if *slot == g {
			if repeats++; repeats == 2 {
				return 1
			}
		}
		*slot = g
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
