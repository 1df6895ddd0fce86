// Package bwt implements a bzip2-style block-sorting compressor, the third
// scheme measured by the paper: per block, an initial run-length pass
// (RLE1), the Burrows-Wheeler transform, move-to-front coding, a zero-run
// coder (RLE2 with RUNA/RUNB symbols) and canonical Huffman coding.
//
// Relative to bzip2 1.0.1 the framing is simplified — one Huffman table per
// block instead of up to six with selectors — which costs a few percent of
// compression factor but preserves the computational profile the paper's
// conclusions rest on: noticeably deeper compression than the Lempel-Ziv
// schemes, at a decompression cost several times higher.
//
// Both directions work out of a pooled workspace (encoder, decoder) that
// grows to the largest block it has seen, so a call allocates its output
// and little else. The block sort (sais.go) is linear in the block whatever
// is in it, so there is no second sorter to fall back on.
package bwt

import "slices"

// Transform computes the Burrows-Wheeler transform of block: the last
// column of the sorted cyclic-rotation matrix, plus the row index at which
// the original block appears.
func Transform(block []byte) ([]byte, int) {
	if len(block) == 0 {
		return nil, 0
	}
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	last := make([]byte, len(block))
	return last, e.transform(last, block)
}

// transform writes the last column of block, which is not empty, into last
// (len(last) == len(block)) and returns the row pointer: the row at which
// block itself appears. A block that is a proper power u^k appears at k
// adjacent rows, any of which decodes to it; the pointer is the lowest, so
// the stream is a function of the block alone and not of how a sorter
// happens to order equal rows.
func (e *encoder) transform(last, block []byte) int {
	w, sa, r := e.sortRotations(block)
	k := len(block) / len(w)
	self := (len(block) - r) % len(w) // the rotation of w at which block starts
	ptr, row := 0, 0
	for _, p := range sa {
		if int(p) == self {
			ptr = row
		}
		c := w[len(w)-1]
		if p > 0 {
			c = w[p-1]
		}
		for end := row + k; row < end; row++ {
			last[row] = c
		}
	}
	return ptr
}

// Inverse reconstructs the original block from its Burrows-Wheeler
// transform and row pointer.
func Inverse(last []byte, ptr int) []byte {
	n := len(last)
	if n == 0 {
		return nil
	}
	if ptr < 0 || ptr >= n {
		return nil
	}
	d := decoderPool.Get().(*decoder)
	defer decoderPool.Put(d)
	clear(d.freq[:])
	for _, c := range last {
		d.freq[c]++
	}
	next := d.buildNext(last)
	out := make([]byte, n)
	p := next[ptr]
	for i := range out {
		out[i] = last[p]
		p = next[p]
	}
	return out
}

// buildNext computes, for each position in the first column of the sorted
// matrix, the position of the same byte in the last column: following it
// from the row pointer reads the block forwards. The buckets come from
// d.freq, which must be last's histogram. The vector lives in d, 4 bytes
// per block byte.
func (d *decoder) buildNext(last []byte) []uint32 {
	var base [256]uint32
	sum := uint32(0)
	for c, k := range d.freq {
		base[c] = sum
		sum += k
	}
	d.next = slices.Grow(d.next[:0], len(last))[:len(last)]
	next := d.next
	for i, c := range last {
		next[base[c]] = uint32(i)
		base[c]++
	}
	return next
}
