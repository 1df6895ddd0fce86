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
// and little else.
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

// transform writes block's last column into last (len(last) == len(block))
// and returns the row pointer.
func (e *encoder) transform(last, block []byte) int {
	n := len(block)
	ptr := 0
	for i, p := range e.cyclicSort(block) {
		if p == 0 {
			ptr = i
			last[i] = block[n-1]
		} else {
			last[i] = block[p-1]
		}
	}
	return ptr
}

// cyclicSort returns the start indices of the cyclic rotations of s in
// lexicographic order, using prefix doubling with counting sorts
// (Manber-Myers), O(n log n). Its four arrays live in the encoder as
// int32 — 16 bytes per input byte — which holds any block a level allows
// (len(s) must stay below 1<<30); the result is valid until e's next sort.
func (e *encoder) cyclicSort(s []byte) []int32 {
	n := int32(len(s))
	// Resized, not cleared: each array is written in full before it is read.
	e.sa = slices.Grow(e.sa[:0], len(s))[:len(s)]
	e.rank = slices.Grow(e.rank[:0], len(s))[:len(s)]
	e.spare = slices.Grow(e.spare[:0], len(s))[:len(s)]
	counters := max(len(s), 256) + 1 // one per class, or per byte value in the first pass
	e.cnt = slices.Grow(e.cnt[:0], counters)[:counters]
	sa, rank, spare, cnt := e.sa, e.rank, e.spare, e.cnt

	// Initial counting sort by first byte.
	for i := 0; i < 256; i++ {
		cnt[i] = 0
	}
	for _, c := range s {
		cnt[c]++
	}
	for i := 1; i < 256; i++ {
		cnt[i] += cnt[i-1]
	}
	for i := n - 1; i >= 0; i-- {
		cnt[s[i]]--
		sa[cnt[s[i]]] = i
	}
	rank[sa[0]] = 0
	classes := int32(1)
	for i := int32(1); i < n; i++ {
		if s[sa[i]] != s[sa[i-1]] {
			classes++
		}
		rank[sa[i]] = classes - 1
	}

	// Stop at k >= n as well as classes == n: periodic inputs (e.g. "abab")
	// contain identical rotations that never separate into distinct
	// classes, and identical rotations may appear in any relative order
	// without affecting the transform.
	for k := int32(1); classes < n && k < n; k <<= 1 {
		// Order by second key: shifting each start back by k gives a
		// sequence already sorted by rank[(i+k) mod n].
		tmp := spare
		for i := int32(0); i < n; i++ {
			tmp[i] = sa[i] - k
			if tmp[i] < 0 {
				tmp[i] += n
			}
		}
		// Stable counting sort by first key rank[tmp[i]].
		for i := int32(0); i < classes; i++ {
			cnt[i] = 0
		}
		for i := int32(0); i < n; i++ {
			cnt[rank[tmp[i]]]++
		}
		for i := int32(1); i < classes; i++ {
			cnt[i] += cnt[i-1]
		}
		for i := n - 1; i >= 0; i-- {
			c := rank[tmp[i]]
			cnt[c]--
			sa[cnt[c]] = tmp[i]
		}
		// Recompute equivalence classes on (rank[i], rank[(i+k) mod n]);
		// i and k are both below n, so one subtraction is the modulo. The
		// sort is done with tmp, so its storage takes the new ranks.
		newRank := tmp
		classes = 1
		var prev [2]int32
		for i := int32(0); i < n; i++ {
			second := sa[i] + k
			if second >= n {
				second -= n
			}
			cur := [2]int32{rank[sa[i]], rank[second]}
			if i > 0 && cur != prev {
				classes++
			}
			newRank[sa[i]] = classes - 1
			prev = cur
		}
		rank, spare = newRank, rank
	}
	return sa
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
// from the row pointer reads the block forwards. The vector lives in d,
// 4 bytes per block byte.
func (d *decoder) buildNext(last []byte) []uint32 {
	var base [256]uint32
	for _, c := range last {
		base[c]++
	}
	sum := uint32(0)
	for c, k := range base {
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
