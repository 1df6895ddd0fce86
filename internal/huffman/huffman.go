// Package huffman implements canonical Huffman coding: optimal
// length-limited code construction via the package-merge algorithm,
// canonical code assignment, and a table-driven canonical decoder.
//
// Both the DEFLATE encoder (internal/flate) and the bzip2-style encoder
// (internal/bwt) build their codes here. Codes are produced in canonical
// (MSB-first) form; DEFLATE reverses them for its LSB-first bit stream.
package huffman

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// ErrInvalidLengths is returned when a set of code lengths does not describe
// a valid (complete or empty) prefix code.
var ErrInvalidLengths = errors.New("huffman: invalid code lengths")

// BuildLengths computes optimal code lengths for the given symbol
// frequencies, with no code longer than maxBits, using the package-merge
// algorithm. Symbols with zero frequency get length zero. If only one symbol
// has nonzero frequency it is assigned length one (a degenerate but valid
// prefix code, as in DEFLATE).
func BuildLengths(freq []int, maxBits int) ([]uint8, error) {
	lengths := make([]uint8, len(freq))
	if err := BuildLengthsInto(lengths, freq, maxBits); err != nil {
		return nil, err
	}
	return lengths, nil
}

// pmLeaf is one nonzero-frequency symbol in the package-merge working set.
type pmLeaf struct {
	weight int64
	sym    int32
}

// pmScratch holds the package-merge working state so steady-state encoders
// (which build two or three codes per DEFLATE block) run without per-call
// allocation. Slices grow on demand and are recycled through pmPool.
type pmScratch struct {
	leaves []pmLeaf
	prevW  []int64 // weights of the previous level's merged list
	curW   []int64
	isLeaf [][]bool // per merge level: composition of the merged list
	active []int32  // diff array over sorted leaves
}

var pmPool = sync.Pool{New: func() any { return new(pmScratch) }}

// BuildLengthsInto is BuildLengths writing into a caller-provided slice
// (len(lengths) must equal len(freq)), the zero-steady-state-allocation
// variant the pooled DEFLATE encoder uses. The result is identical to
// BuildLengths for every input, including the order-dependent resolution of
// equal-weight ties.
func BuildLengthsInto(lengths []uint8, freq []int, maxBits int) error {
	if len(lengths) != len(freq) {
		return fmt.Errorf("huffman: lengths size %d != freq size %d", len(lengths), len(freq))
	}
	for i := range lengths {
		lengths[i] = 0
	}
	ps := pmPool.Get().(*pmScratch)
	defer pmPool.Put(ps)
	leaves := ps.leaves[:0]
	for i, f := range freq {
		if f < 0 {
			ps.leaves = leaves
			return fmt.Errorf("huffman: negative frequency for symbol %d", i)
		}
		if f > 0 {
			leaves = append(leaves, pmLeaf{weight: int64(f), sym: int32(i)})
		}
	}
	ps.leaves = leaves
	n := len(leaves)
	switch n {
	case 0:
		return nil
	case 1:
		lengths[leaves[0].sym] = 1
		return nil
	}
	if maxBits < 1 || n > 1<<maxBits {
		return fmt.Errorf("huffman: %d symbols cannot fit in %d bits", n, maxBits)
	}
	// The historical implementation ordered leaves with sort.Slice, whose
	// unstable permutation decides which of two equal-weight symbols gets
	// the longer code. Golden traces pin those bytes, so the same sort (and
	// the same leaf-beats-package tie rule below) is kept deliberately.
	sort.Slice(leaves, func(a, b int) bool { return leaves[a].weight < leaves[b].weight })

	// Counting formulation of package-merge: build each level's merged list
	// (leaves merged with consecutive pairs of the previous list) recording
	// only weights and leaf/package composition, then walk back down from
	// the final list's first 2n-2 items. A taken package at one level
	// activates its two children at the level below; taken leaves are
	// always a prefix of the sorted leaf array, so a diff array over that
	// prefix accumulates every leaf's final code length.
	levels := maxBits - 1
	for len(ps.isLeaf) < levels {
		ps.isLeaf = append(ps.isLeaf, nil)
	}
	prevW := ps.prevW[:0]
	for _, lf := range leaves {
		prevW = append(prevW, lf.weight)
	}
	curW := ps.curW[:0]
	for lvl := 0; lvl < levels; lvl++ {
		npkg := len(prevW) / 2
		curW = curW[:0]
		flags := ps.isLeaf[lvl][:0]
		li, pi := 0, 0
		for li < n || pi < npkg {
			if li < n && (pi >= npkg || leaves[li].weight <= prevW[2*pi]+prevW[2*pi+1]) {
				curW = append(curW, leaves[li].weight)
				flags = append(flags, true)
				li++
			} else {
				curW = append(curW, prevW[2*pi]+prevW[2*pi+1])
				flags = append(flags, false)
				pi++
			}
		}
		ps.isLeaf[lvl] = flags
		// The merged list becomes the next level's package input.
		prevW, curW = curW, prevW
	}
	ps.prevW, ps.curW = prevW, curW

	active := ps.active
	if cap(active) < n+1 {
		active = make([]int32, n+1)
		ps.active = active[:0]
	}
	active = active[:n+1]
	clear(active)
	take := 2*n - 2
	for lvl := levels - 1; lvl >= 0; lvl-- {
		flags := ps.isLeaf[lvl]
		if take > len(flags) {
			return fmt.Errorf("huffman: package-merge take %d exceeds list %d", take, len(flags))
		}
		leafTaken := 0
		for _, isLeaf := range flags[:take] {
			if isLeaf {
				leafTaken++
			}
		}
		active[0]++
		active[leafTaken]--
		take = 2 * (take - leafTaken)
	}
	// The bottom list is the leaves themselves.
	if take > n {
		return fmt.Errorf("huffman: package-merge take %d exceeds %d leaves", take, n)
	}
	active[0]++
	active[take]--

	run := int32(0)
	for k := 0; k < n; k++ {
		run += active[k]
		if run < 1 || run > int32(maxBits) {
			return fmt.Errorf("huffman: package-merge produced length %d for symbol %d", run, leaves[k].sym)
		}
		lengths[leaves[k].sym] = uint8(run)
	}
	return nil
}

// CanonicalCodes assigns canonical codes (MSB-aligned within their length)
// to the given lengths: codes of the same length are consecutive in symbol
// order, and shorter codes lexicographically precede longer ones.
func CanonicalCodes(lengths []uint8) ([]uint32, error) {
	codes := make([]uint32, len(lengths))
	if err := CanonicalCodesInto(codes, lengths); err != nil {
		return nil, err
	}
	return codes, nil
}

// CanonicalCodesInto is CanonicalCodes writing into a caller-provided slice
// (len(codes) must equal len(lengths)); encoders that rebuild codes per
// block use it to stay allocation-free.
func CanonicalCodesInto(codes []uint32, lengths []uint8) error {
	if len(codes) != len(lengths) {
		return ErrInvalidLengths
	}
	maxLen := uint8(0)
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	clear(codes)
	if maxLen == 0 {
		return nil
	}
	if maxLen > 57 {
		return ErrInvalidLengths
	}
	var count [58]int
	for _, l := range lengths {
		if l > 0 {
			count[l]++
		}
	}
	var next [58]uint32
	code := uint32(0)
	for l := uint8(1); l <= maxLen; l++ {
		code = (code + uint32(count[l-1])) << 1
		next[l] = code
	}
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		codes[s] = next[l]
		next[l]++
		if codes[s] >= 1<<l {
			return ErrInvalidLengths
		}
	}
	return nil
}

// KraftSum returns the Kraft sum of the lengths scaled by 2^scale where
// scale is the maximum length: sum over symbols of 2^(scale-len). A complete
// prefix code has KraftSum == 2^scale.
func KraftSum(lengths []uint8) (sum uint64, scale uint8) {
	for _, l := range lengths {
		if l > scale {
			scale = l
		}
	}
	for _, l := range lengths {
		if l > 0 {
			sum += 1 << (scale - l)
		}
	}
	return sum, scale
}

// maxCodeLen is the longest code a Decoder accepts: canonical codes are
// held in a uint32, and a 64-bit Kraft sum scaled by 2^32 cannot wrap.
// (The callers stop far lower, DEFLATE at 15 bits and the bzip2-style
// coder at 20.)
const maxCodeLen = 32

// Decoder decodes canonical Huffman codes through two-level lookup tables
// (DecodeLSB/DecodeMSB, see table.go). Between Resets a decoder is
// immutable and safe for concurrent use; the lookup tables build lazily,
// once per orientation. Reset rebuilds it for another code in the same
// storage, so a decoder held in a workspace costs nothing per block.
type Decoder struct {
	maxLen  int
	first   [maxCodeLen + 1]uint32 // first canonical code of each length
	offset  [maxCodeLen + 1]int32  // index into syms of the first code of each length
	count   [maxCodeLen + 1]int32
	syms    []int32 // symbols ordered by (length, symbol)
	symbols int

	lsbOnce sync.Once
	lsb     lookupTable
	msbOnce sync.Once
	msb     lookupTable
}

// NewDecoder builds a decoder for the given canonical code lengths. Lengths
// describing an over-subscribed code are rejected; incomplete codes are
// accepted only in the degenerate single-symbol case (as DEFLATE allows).
func NewDecoder(lengths []uint8) (*Decoder, error) {
	d := &Decoder{}
	if err := d.Reset(lengths); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset rebuilds d for the given canonical code lengths, reusing its
// symbol and lookup-table storage. It validates exactly as NewDecoder
// does; after an error d must be Reset again before it decodes. Reset
// must not run while another goroutine is decoding with d.
func (d *Decoder) Reset(lengths []uint8) error {
	var count [maxCodeLen + 1]int32
	maxLen, nonzero := 0, 0
	for _, l := range lengths {
		if l == 0 {
			continue
		}
		if l > maxCodeLen {
			return ErrInvalidLengths
		}
		if int(l) > maxLen {
			maxLen = int(l)
		}
		count[l]++
		nonzero++
	}
	if nonzero == 0 {
		return ErrInvalidLengths
	}
	sum, scale := KraftSum(lengths)
	if sum > 1<<scale {
		return ErrInvalidLengths
	}
	if sum < 1<<scale && nonzero != 1 {
		return ErrInvalidLengths
	}
	d.maxLen, d.count, d.symbols = maxLen, count, nonzero
	d.lsbOnce, d.msbOnce = sync.Once{}, sync.Once{}
	code := uint32(0)
	idx := int32(0)
	for l := 1; l <= maxLen; l++ {
		code = (code + uint32(count[l-1])) << 1
		d.first[l] = code
		d.offset[l] = idx
		idx += count[l]
	}
	d.syms = slices.Grow(d.syms[:0], nonzero)[:nonzero]
	var pos [maxCodeLen + 1]int32
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		d.syms[d.offset[l]+pos[l]] = int32(s)
		pos[l]++
	}
	return nil
}

// MaxLen reports the longest code length in the decoder's code.
func (d *Decoder) MaxLen() int { return d.maxLen }

// NumSymbols reports the number of symbols with nonzero code length.
func (d *Decoder) NumSymbols() int { return d.symbols }

// Reverse returns the low n bits of v in reversed order, used to emit
// canonical codes into DEFLATE's LSB-first stream.
func Reverse(v uint32, n uint8) uint32 {
	var r uint32
	for i := uint8(0); i < n; i++ {
		r = r<<1 | (v & 1)
		v >>= 1
	}
	return r
}
