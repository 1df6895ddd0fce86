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
//
// transform rotates block to its least rotation t, which is a power w^k of
// a Lyndon word w (k is 1 unless block is periodic), and suffix-sorts w:
// the suffixes of a Lyndon word are ordered as its rotations are, and the
// rotations of w^k are those of w, each k times over, so rotation p of w is
// rotation (r + p + j·len(w)) mod len(block) of block for every j < k, r
// being where t starts in block. The sort writes the column of w and finds
// the row of the rotation at which block starts; a power spreads each of
// those rows over k, from the end so that none is overwritten before it is
// read. t and the suffix array of w are left in e.rot and e.sa: 5 bytes per
// block byte, plus the bitmaps and counters of every level of the sort that
// found no idle room for them in the suffix array (see sais) — 2 KiB and a
// bit per byte on most blocks, up to 4 bytes per block byte on one that
// does not compress, whose reduced texts have nearly as many symbols as
// entries. Indices are int32: len(block) must stay below 1<<31, which any
// block a level allows does.
func (e *encoder) transform(last, block []byte) int {
	r := leastRotation(block)
	e.rot = append(append(e.rot[:0], block[r:]...), block[:r]...)
	w := e.rot[:lyndonRoot(e.rot)]
	k := len(block) / len(w)
	self := (len(block) - r) % len(w) // the rotation of w at which block starts
	e.sa = slices.Grow(e.sa[:0], len(w))[:len(w)]
	row := sais(w, e.sa, nil, 256, &e.bkt, last[:len(w)], self)
	if k > 1 {
		for i := len(w) - 1; i >= 0; i-- {
			c := last[i]
			for j := i * k; j < i*k+k; j++ {
				last[j] = c
			}
		}
	}
	return row * k
}

// maxColumn bounds the column the inverse transform takes: an entry of its
// packed vectors holds a row in its top 24 bits. The longest column a
// stream may declare, columnBudget(9), is about 1.1 M.
const maxColumn = 1 << 24

// Inverse reconstructs the original block from its Burrows-Wheeler
// transform and row pointer. It returns nil for an empty column, a
// pointer outside it, a column longer than maxColumn, and a column that is
// not a transform with ptr among its rows (see inverse).
func Inverse(last []byte, ptr int) []byte {
	n := len(last)
	if n == 0 || ptr < 0 || ptr >= n || n > maxColumn {
		return nil
	}
	d := decoderPool.Get().(*decoder)
	defer decoderPool.Put(d)
	clear(d.freq[:])
	for _, c := range last {
		d.freq[c]++
	}
	next, lf := d.buildNext(last)
	out := make([]byte, n)
	d.last = slices.Grow(d.last[:0], n)[:n] // the scratch of the walks from row 0
	if !anchoredInverse(out, d.last, next, lf, ptr) && !inverse(out, next, lf, ptr) {
		return nil
	}
	return out
}

// buildNext computes the inverse transform's two vectors, in d, from the
// last column and its histogram, which d.freq must hold. Row j of the
// sorted matrix, whose first byte is the k-th c of the first column, is
// followed by the row whose last byte is the k-th c of the last column:
// next[j] holds that row shifted left by 8, OR its last byte (row j's
// first). lf inverts it — lf[i] holds the row that row i follows, shifted,
// OR last[i] — so a step either way is one load. 8 bytes per block byte.
func (d *decoder) buildNext(last []byte) (next, lf []uint32) {
	var base [256]uint32
	sum := uint32(0)
	for c, k := range d.freq {
		base[c] = sum
		sum += k
	}
	d.next = slices.Grow(d.next[:0], len(last))[:len(last)]
	d.lf = slices.Grow(d.lf[:0], len(last))[:len(last)]
	next, lf = d.next, d.lf
	for i, c := range last {
		j := base[c]
		next[j] = uint32(i)<<8 | uint32(c)
		lf[i] = j<<8 | uint32(c)
		base[c] = j + 1
	}
	return next, lf
}

// inverse writes into dst (len(dst) == len(next)) the block that the
// vectors of buildNext read from row ptr, from both ends at once: forwards
// along next into its front half and backwards along lf into its back
// half, two chains of dependent loads neither of which waits on the other.
//
// The one walk forwards from ptr goes round ptr's cycle under next. The
// halves are that walk's output when the cycle's length divides len(dst),
// and that is exactly when the two chains stop on the same row. Every
// column Compress writes has that property: next takes the t-th of the
// rows equal to one rotation to the t-th of the rows equal to the next
// rotation, so ptr's cycle passes once through each distinct rotation of
// the block — all n of them, or the m of a block that is u^(n/m). A column
// on which the chains do not meet is no transform; inverse reports false.
func inverse(dst []byte, next, lf []uint32, ptr int) bool {
	n := len(dst)
	fwd, bwd := uint32(ptr), uint32(ptr)
	half := n / 2
	for i := 0; i < half; i++ {
		v, w := next[fwd], lf[bwd]
		dst[i], dst[n-1-i] = byte(v), byte(w)
		fwd, bwd = v>>8, w>>8
	}
	if n%2 == 1 {
		v := next[fwd]
		dst[half] = byte(v)
		fwd = v >> 8
	}
	return fwd == bwd
}

// anchoredInverse is inverse with four chains of loads in flight instead of
// two, for the columns it can vouch for — all that Compress writes but a
// periodic block's — leaving every other column to inverse. Row 0, the least rotation, is a second anchor besides ptr: it is
// the block's rotation at some position r, unknown until the walk ends.
// The forward walk from ptr (position 0, into dst's front) and the
// backward walk from row 0 (into scratch's back) close the arc [0, r) when
// they stand on the same row; the forward walk from row 0 (into scratch's
// front) and the backward walk from ptr (into dst's back) close [r, n) the
// same way. Each walk pair is checked after every single step, so an arc
// of odd length closes too: after a round of steps the pair has met if
// the forward walk stands on the row the backward walk stood on before its
// step (the backward step is then one too many and is dropped) or on the
// row it stands on now. A closed arc's walks stop; the other's go on. Once
// both arcs close, r is the first arc's length, and row 0's bytes are
// copied into place around it.
//
// Closing [0, r) says next^r(ptr) = 0, closing [r, n) says next^(n-r)(0) =
// ptr, so arcs that close within n steps in all make next^n(ptr) = ptr —
// inverse's meeting rule — and dst is the one walk's bytes. That holds on
// every aperiodic column Compress writes, whose rows are the n distinct
// rotations on one cycle. Everywhere else — ptr = 0, a periodic block
// (its cycle is shorter than n; row 0 may be off it), a column that is no
// transform — anchoredInverse reports false after at most n steps, having
// decided nothing, and inverse decides. scratch holds n bytes.
func anchoredInverse(dst, scratch []byte, next, lf []uint32, ptr int) bool {
	n := len(dst)
	if ptr == 0 {
		return false
	}
	scratch = scratch[:n]
	f1, b1, f2, b2 := uint32(ptr), uint32(ptr), uint32(0), uint32(0)
	// dst[:a] and dst[e:] are ptr's walks so far, scratch[:c] and
	// scratch[g:] row 0's; steps is what the four may still take.
	a, e, c, g, steps := 0, n, 0, n, n
	openA, openB := true, true
	for steps >= 4 {
		v, w, x, y := next[f1], lf[b1], next[f2], lf[b2]
		dst[a], dst[e-1], scratch[c], scratch[g-1] = byte(v), byte(w), byte(x), byte(y)
		pb1, pb2 := b1, b2
		f1, b1, f2, b2 = v>>8, w>>8, x>>8, y>>8
		a, e, c, g, steps = a+1, e-1, c+1, g-1, steps-4
		if f1 == pb2 || f1 == b2 || f2 == pb1 || f2 == b1 {
			if f1 == pb2 {
				openA, g, steps = false, g+1, steps+1
			} else if f1 == b2 {
				openA = false
			}
			if f2 == pb1 {
				openB, e, steps = false, e+1, steps+1
			} else if f2 == b1 {
				openB = false
			}
			break
		}
	}
	if openA {
		if a, g, steps = closeArc(next, lf, dst, a, f1, scratch, g, b2, steps); steps < 0 {
			return false
		}
	}
	if openB {
		if c, e, steps = closeArc(next, lf, scratch, c, f2, dst, e, b1, steps); steps < 0 {
			return false
		}
	}
	if steps != 0 {
		return false // the arcs closed round a cycle shorter than the column
	}
	r := a + n - g
	copy(dst[a:r], scratch[g:])
	copy(dst[r:e], scratch[:c])
	return true
}

// closeArc walks one arc of anchoredInverse from both ends until they stand
// on the same row, checking after every step, within steps steps: forwards
// along next from row f, writing fd[i], fd[i+1], …, and backwards along lf
// from row b, writing bd[j-1], bd[j-2], …. It returns the indices it
// reached and the steps left, which are -1 if the arc did not close.
func closeArc(next, lf []uint32, fd []byte, i int, f uint32, bd []byte, j int, b uint32, steps int) (int, int, int) {
	for ; steps >= 2; steps -= 2 {
		v, w := next[f], lf[b]
		fd[i], bd[j-1] = byte(v), byte(w)
		pb := b
		f, b, i, j = v>>8, w>>8, i+1, j-1
		if f == pb {
			return i, j + 1, steps - 1
		}
		if f == b {
			return i, j, steps - 2
		}
	}
	if steps == 1 {
		v := next[f]
		fd[i] = byte(v)
		if v>>8 == b {
			return i + 1, j, 0
		}
	}
	return i, j, -1
}
