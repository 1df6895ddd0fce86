package bwt

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
)

// leastRotation returns the start of a lexicographically least rotation of
// s, which is not empty: two candidates are compared k bytes at a time and
// the loser skips past everything the comparison ruled out, so the scan is
// linear. Only a position that starts a run of the least byte of s is a
// candidate — any other rotation starts higher, or with a shorter run of
// it — which on ordinary data leaves few, found by bytes.IndexByte.
func leastRotation(s []byte) int {
	n := len(s)
	lo := slices.Min(s)
	next := func(p int) int { // the first candidate at or after p, or n
		for p < n {
			q := bytes.IndexByte(s[p:], lo)
			if q < 0 {
				return n
			}
			if p += q; s[(p+n-1)%n] != lo {
				return p
			}
			p++
		}
		return n
	}
	i := next(0)
	if i == n {
		return 0 // s is one byte repeated
	}
	j, k := next(i+1), 0
	for i < n && j < n && k < n {
		a, b := i+k, j+k
		if a >= n {
			a -= n
		}
		if b >= n {
			b -= n
		}
		if s[a] == s[b] {
			k++
			continue
		}
		if s[a] > s[b] {
			i = next(i + k + 1)
		} else {
			j = next(j + k + 1)
		}
		if i == j {
			j = next(j + 1)
		}
		k = 0
	}
	return min(i, j)
}

// lyndonRoot returns len(w) for the Lyndon word w of which t, a least
// rotation, is a power: the first step of Duval's factorisation, which on
// such a t never meets a byte below the one it is compared with. It keeps
// the length of the match between t and the text from a candidate start:
// only a start at t's least byte t[0] begins one, so candidates and the
// ends of matches are both found a word at a time.
func lyndonRoot(t []byte) int {
	n := len(t)
	for k := nextByte(t, 1, t[0]); k < n; k = nextByte(t, k, t[0]) {
		m := commonPrefix(t, t[k:])
		if k+m == n {
			return k
		}
		k += m + 1
	}
	return n
}

const lows, highs = 0x0101010101010101, 0x8080808080808080

// nextByte returns the first position p >= i with t[p] == c, or len(t).
// The lowest zero byte of a word is the lowest set bit of
// (x - lows) &^ x & highs: the subtraction's borrow marks only bytes above
// it.
func nextByte(t []byte, i int, c byte) int {
	pat := uint64(c) * lows
	for ; i+8 <= len(t); i += 8 {
		x := binary.LittleEndian.Uint64(t[i:]) ^ pat
		if z := (x - lows) &^ x & highs; z != 0 {
			return i + bits.TrailingZeros64(z)/8
		}
	}
	for i < len(t) && t[i] != c {
		i++
	}
	return i
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// sais writes the suffix array of t, whose symbols are all below k, to sa
// (len(sa) == len(t)) by induced sorting (Nong, Zhang and Chan's SA-IS, in
// the sentinel-free form of Mori's sais-lite and index/suffixarray): find
// the LMS positions, sort the LMS substrings by two induction passes, name
// them, recurse on the names if two substrings share one, then induce every
// suffix from the sorted LMS suffixes.
//
// One scan of t finds the LMS positions and counts the symbols; the
// positions are kept as a bitmap, which the passes that need them again
// read a word at a time. The reduced text and its suffix array live in sa
// itself; the rest needs a home: two counters per symbol — how often it
// occurs, counted once, and the head or tail of its bucket, set from the
// counts before each pass and moved by it — and the bitmap. They live in
// free, the idle middle of the caller's sa, when they fit there, else on
// top of *spill, which every level leaves as long as it found it.
//
// col, when not nil (t is the top level's Lyndon word), receives the last
// column of the sorted rotations of t from the final induction, which
// writes each row's entry once and has loaded the byte before it to learn
// its type: col[i] is the byte before suffix sa[i], cyclically. sais then
// returns the row at which suffix self ends up.
//
// An entry of sa is a position; a negated entry is one the current pass
// must not induce from, and 0 doubles as "empty": suffix 0 has no
// predecessor to induce, and no pass before the last meets it.
func sais[T byte | int32](t []T, sa, free []int32, k int, spill *[]int32, col []byte, self int) (row int) {
	n := len(t)
	if n < 2 {
		clear(sa)
		if col != nil {
			col[0] = byte(t[0])
		}
		return 0
	}
	mark := len(*spill)
	need := 2*k + (n+31)/32
	if need > len(free) {
		*spill = slices.Grow(*spill, need)[:mark+need]
		free = (*spill)[mark:]
	}
	freq, bkt, lms := free[:k], free[k:2*k], free[2*k:need]
	clear(freq)
	m := scanLMS(t, freq, lms)

	// Stage 1: drop every LMS position but the first at the tail of its
	// bucket and sort the LMS substrings by induction. The first starts a
	// substring but ends none, and leaving it out keeps every pass off the
	// L-types before it, which have no substring to sort. sortS gathers the
	// LMS positions in substring order at the end of sa, and leaves the
	// rest empty. A text with no LMS position (S-types, then L-types) has
	// nothing to sort here, and the final induction alone sorts it.
	if m > 0 {
		clear(sa)
		setBuckets(freq, bkt, true)
		first := true
		for wi, word := range lms {
			for x := uint32(word); x != 0; x &= x - 1 {
				p := wi<<5 | bits.TrailingZeros32(x)
				if first {
					first = false
					continue
				}
				bkt[t[p]]--
				sa[bkt[t[p]]] = int32(p)
			}
		}
		setBuckets(freq, bkt, false)
		sortL(t, sa, bkt)
		setBuckets(freq, bkt, true)
		sortS(t, sa, bkt)

		// Note each substring at sa[p/2], which two LMS positions never
		// share and which lies below the gathered ones, and replace the note
		// by the substring's name, its rank among distinct ones: equal notes
		// mean equal substrings unless they are lengths, which are then
		// checked on the text.
		prev := -1
		for wi, word := range lms {
			for x := uint32(word); x != 0; x &= x - 1 {
				p := wi<<5 | bits.TrailingZeros32(x)
				if prev >= 0 {
					sa[prev/2] = substringNote(t, prev, p, k)
				}
				prev = p
			}
		}
		sa[prev/2] = 0 // the last substring runs into the sentinel and equals no other
		names, q, qnote := 0, int32(0), int32(-1)
		for _, p := range sa[n-m:] {
			note := sa[p/2]
			if note != qnote || uint32(note) < uint32(n) && !slices.Equal(t[p:p+note], t[q:q+note]) {
				names++
				q, qnote = p, note
			}
			sa[p/2] = int32(names)
		}

		// Stage 2: distinct names are already suffix order; otherwise sort
		// the text of names, packed at the end of sa, into the front of sa,
		// and turn its indices back into LMS positions.
		if names < m {
			t1 := sa[n-m:]
			j := m
			for i := (n - 1) / 2; i >= 0; i-- {
				if sa[i] != 0 {
					j--
					t1[j] = sa[i] - 1
				}
			}
			sais(t1, sa[:m], sa[m:n-m], names, spill, nil, -1)
			j = 0
			for wi, word := range lms {
				for x := uint32(word); x != 0; x &= x - 1 {
					t1[j] = int32(wi<<5 | bits.TrailingZeros32(x))
					j++
				}
			}
			for i, r := range sa[:m] {
				sa[i] = t1[r]
			}
		} else {
			copy(sa, sa[n-m:])
		}
	}

	// Stage 3: spread the sorted LMS suffixes to the tails of their buckets
	// and induce the rest.
	clear(sa[m:])
	setBuckets(freq, bkt, true)
	for i := m - 1; i >= 0; i-- {
		p := sa[i]
		sa[i] = 0
		bkt[t[p]]--
		sa[bkt[t[p]]] = p
	}
	setBuckets(freq, bkt, false)
	row = induceL(t, sa, bkt, col, self)
	setBuckets(freq, bkt, true)
	row = max(row, induceS(t, sa, bkt, col, self))
	*spill = (*spill)[:mark]
	return row
}

// scanLMS counts the symbols of t into freq and sets bit p%32 of lms[p/32]
// for every LMS position p of t — an S-type suffix (smaller than the one
// after it) whose predecessor is L-type — and returns how many there are.
// It walks t once from the end, where the final suffix is L-type (the
// sentinel beyond it is smaller), working each type out without a branch.
func scanLMS[T byte | int32](t []T, freq, lms []int32) int {
	n := len(t)
	next := t[n-1]
	freq[next]++
	sNext, word, m := uint32(0), uint32(0), 0
	for i := n - 2; i >= 0; i-- {
		c := t[i]
		freq[c]++
		s := b2u(c < next) | b2u(c == next)&sNext
		p := i + 1
		word |= (sNext &^ s) << (p & 31)
		if p&31 == 0 {
			lms[p>>5] = int32(word)
			m += bits.OnesCount32(word)
			word = 0
		}
		sNext, next = s, c
	}
	lms[0] = int32(word)
	return m + bits.OnesCount32(word)
}

// b2u is 1 for true and 0 for false; the compiler makes it a SETcc.
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// substringNote is what names the LMS substring t[p:q+1] (q the next LMS
// position): its length, or — when its symbols are bytes and it is short —
// those bytes, each plus one, packed into a word and inverted, so that the
// note is no length (len(t) or more, unsigned) and two notes are equal
// exactly when the substrings are. A substring starts and ends S-type, and
// 255, with nothing above it, is L-type wherever it occurs, so its ends pack
// to nonzero bytes and its length is plain.
func substringNote[T byte | int32](t []T, p, q, k int) int32 {
	if q-p < 4 && k <= 256 {
		var x uint32
		for i := q; i >= p; i-- {
			x = x<<8 | uint32(uint8(t[i])+1)
		}
		if ^x >= uint32(len(t)) {
			return int32(^x)
		}
	}
	return int32(q + 1 - p)
}

// setBuckets sets bkt[c] to the start of symbol c's bucket in the suffix
// array of the text whose symbol counts are freq, or to its end.
func setBuckets(freq, bkt []int32, tails bool) {
	sum := int32(0)
	for c, f := range freq {
		if tails {
			bkt[c] = sum + f
		} else {
			bkt[c] = sum
		}
		sum += f
	}
}

// sortL and sortS sort the LMS substrings. sortL scans sa upwards from
// bucket heads and, for each entry whose predecessor is L-type, puts the
// predecessor at the head of its bucket, negated if its own predecessor is
// S-type; the first is the sentinel's, the final suffix. It erases an
// entry once used and restores a negated one, which leaves the L-types that
// start a run. sortS scans downwards from bucket tails and puts each
// entry's S-type predecessor at the tail of its bucket, negated if its own
// predecessor is L-type: it is an LMS position, which sortS gathers at the
// end of sa as it meets it, in substring order. No pass reaches position 0:
// every position they meet lies after the first LMS one.
func sortL[T byte | int32](t []T, sa, bkt []int32) {
	putL(t, sa, bkt, int32(len(t)))
	for i, j := range sa {
		if j > 0 {
			sa[i] = 0
			putL(t, sa, bkt, j)
		} else if j < 0 {
			sa[i] = -j
		}
	}
}

func putL[T byte | int32](t []T, sa, bkt []int32, j int32) {
	j--
	c := t[j]
	if t[j-1] < c {
		j = -j
	}
	sa[bkt[c]] = j
	bkt[c]++
}

func sortS[T byte | int32](t []T, sa, bkt []int32) {
	top := len(sa)
	for i := len(sa) - 1; i >= 0; i-- {
		j := sa[i]
		if j == 0 {
			continue
		}
		sa[i] = 0
		if j < 0 {
			top--
			sa[top] = -j
			continue
		}
		j--
		c := t[j]
		if t[j-1] > c {
			j = -j
		}
		bkt[c]--
		sa[bkt[c]] = j
	}
}

// induceL and induceS induce every suffix from the sorted LMS ones, each
// writing a row's entry once, where it stays. induceL scans upwards and
// puts each positive entry's predecessor, L-type, at the head of its
// bucket, negated if its own predecessor is S-type, for induceS; induceS
// scans downwards, restores each negated entry and puts its predecessor,
// S-type, at the tail of its bucket, negated unless its own predecessor is
// L-type. An entry placed knows the byte before it — the type test loads it
// — which is its row's byte of col, and each returns the row of suffix
// self if it placed it, else 0.
func induceL[T byte | int32](t []T, sa, bkt []int32, col []byte, self int) (row int) {
	n := len(t)
	last := t[n-1]
	k := n - 1 // the final suffix, whose successor is the sentinel
	for i := -1; i < len(sa); i++ {
		if i >= 0 {
			if k = int(sa[i]) - 1; k < 0 {
				continue
			}
		}
		c, before := t[k], last
		j := int32(k)
		if k > 0 {
			if before = t[k-1]; before < c {
				j = -j
			}
		}
		b := bkt[c]
		bkt[c]++
		sa[b] = j
		if col != nil {
			col[b] = byte(before)
			if k == self {
				row = int(b)
			}
		}
	}
	return row
}

func induceS[T byte | int32](t []T, sa, bkt []int32, col []byte, self int) (row int) {
	n := len(t)
	last := t[n-1]
	for i := len(sa) - 1; i >= 0; i-- {
		j := sa[i]
		if j >= 0 {
			continue
		}
		j = -j
		sa[i] = j
		k := j - 1
		c, before := t[k], last
		if k > 0 {
			if before = t[k-1]; before <= c {
				k = -k
			}
		}
		bkt[c]--
		b := bkt[c]
		sa[b] = k
		if col != nil {
			col[b] = byte(before)
			if int(j-1) == self {
				row = int(b)
			}
		}
	}
	return row
}
