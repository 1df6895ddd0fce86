package bwt

import (
	"bytes"
	"slices"
)

// sortRotations sorts the cyclic rotations of s in linear time. It rotates
// s to its least rotation t, which is a power w^k of a Lyndon word w (k is
// 1 unless s is periodic), and suffix-sorts w: the suffixes of a Lyndon
// word are ordered as its rotations are, and the rotations of w^k are
// those of w, each k times over. It returns w, the suffix array of w and
// the index r at which t starts in s, so rotation sa[i] of w is rotation
// (r + sa[i] + j·len(w)) mod len(s) of s for every j < k. All three live
// in e until its next sort: 5 bytes per block byte, plus the counters of
// every level of the sort that found no idle room for them in the suffix
// array (see sais) — 2 KiB for the bytes, tens of KiB more on text, up to
// 4 bytes per block byte on one that does not compress, whose reduced
// texts have nearly as many symbols as entries. Indices are int32: len(s)
// must stay below 1<<31, which any block a level allows does.
func (e *encoder) sortRotations(s []byte) (w []byte, sa []int32, r int) {
	r = leastRotation(s)
	e.rot = append(append(e.rot[:0], s[r:]...), s[:r]...)
	w = e.rot[:lyndonRoot(e.rot)]
	e.sa = slices.Grow(e.sa[:0], len(w))[:len(w)]
	sais(w, e.sa, nil, 256, &e.bkt)
	return w, e.sa, r
}

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
// such a t never meets a byte below the one it is compared with.
func lyndonRoot(t []byte) int {
	j := 0
	for k := 1; k < len(t); k++ {
		if t[j] < t[k] {
			j = 0
		} else {
			j++
		}
	}
	return len(t) - j
}

// sais writes the suffix array of t, whose symbols are all below k, to sa
// (len(sa) == len(t)) by induced sorting (Nong, Zhang and Chan's SA-IS, in
// the sentinel-free form of Mori's sais-lite): sort the LMS substrings by
// two induction passes, name them, recurse on the names if two substrings
// share one, then induce every suffix from the sorted LMS suffixes. The
// reduced text and its suffix array live in sa itself; only the counters
// need a home, two per symbol — how often it occurs, counted once, and the
// head or tail of its bucket, set from the counts before each pass and
// moved by it. They live in free, the idle middle of the caller's sa, when
// they fit there, else on top of *spill, which every level leaves as long
// as it found it. Entries of sa are positions; a complemented (negative)
// entry is one the current pass must not induce from, and 0 doubles as
// "empty" because suffix 0 has no predecessor to induce.
func sais[T byte | int32](t []T, sa, free []int32, k int, spill *[]int32) {
	n := len(t)
	if n < 2 {
		clear(sa)
		return
	}
	mark := len(*spill)
	if 2*k > len(free) {
		*spill = slices.Grow(*spill, 2*k)[:mark+2*k]
		free = (*spill)[mark:]
	}
	freq, bkt := free[:k], free[k:2*k]
	clear(freq)
	for _, c := range t {
		freq[c]++
	}

	// Stage 1: drop every LMS position at the tail of its bucket and sort
	// the LMS substrings by induction.
	clear(sa)
	setBuckets(freq, bkt, true)
	m := 0
	eachLMS(t, func(p int) {
		bkt[t[p]]--
		sa[bkt[t[p]]] = int32(p)
		m++
	})
	setBuckets(freq, bkt, false)
	sortL(t, sa, bkt)
	setBuckets(freq, bkt, true)
	sortS(t, sa, bkt)
	// What is left is the LMS positions, complemented, in substring order:
	// gather them at the front, ...
	got := 0
	for i, j := range sa {
		if j < 0 {
			sa[i] = 0
			sa[got] = ^j
			got++
		}
	}
	// ... note each substring's length (through the next LMS position, or
	// to the end of t) at sa[m+p/2], which two LMS positions never share,
	// and replace it by the substring's name, its rank among distinct ones.
	end := n
	eachLMS(t, func(p int) {
		sa[m+p/2] = int32(end - p)
		end = p + 1
	})
	names, q, qlen := 0, int32(0), int32(-1)
	for _, p := range sa[:m] {
		plen := sa[m+int(p)/2]
		// The substring that runs off the end of t ends in the sentinel and
		// equals no other.
		if plen != qlen || int(p+plen) >= n || int(q+qlen) >= n || !slices.Equal(t[p:p+plen], t[q:q+qlen]) {
			names++
			q, qlen = p, plen
		}
		sa[m+int(p)/2] = int32(names)
	}

	// Stage 2: distinct names are already suffix order; otherwise sort the
	// text of names, packed at the end of sa, into the front of sa, and
	// turn its indices back into LMS positions.
	if names < m {
		t1 := sa[n-m:]
		j := m
		for i := m + (n-1)/2; i >= m; i-- {
			if sa[i] != 0 {
				j--
				t1[j] = sa[i] - 1
			}
		}
		sais(t1, sa[:m], sa[m:n-m], names, spill)
		j = m
		eachLMS(t, func(p int) {
			j--
			t1[j] = int32(p)
		})
		for i, r := range sa[:m] {
			sa[i] = t1[r]
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
	induceL(t, sa, bkt)
	setBuckets(freq, bkt, true)
	induceS(t, sa, bkt)
	*spill = (*spill)[:mark]
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

// eachLMS calls f with every LMS position of t — an S-type suffix (smaller
// than the one after it) whose predecessor is L-type — from the last to
// the first. The final suffix is L-type: the sentinel beyond it is smaller.
func eachLMS[T byte | int32](t []T, f func(p int)) {
	sType, next := false, t[len(t)-1]
	for i := len(t) - 2; i >= 0; i-- {
		c := t[i]
		if c < next {
			sType = true
		} else if c > next {
			if sType {
				f(i + 1)
			}
			sType = false
		}
		next = c
	}
}

// putL puts suffix j-1, which is L-type, at the head of its bucket,
// complemented if its own predecessor is S-type: it starts a run of L-types
// and is all that the S pass needs of it.
func putL[T byte | int32](t []T, sa, bkt []int32, j int32) {
	j--
	c := t[j]
	if j > 0 && t[j-1] < c {
		j = ^j
	}
	sa[bkt[c]] = j
	bkt[c]++
}

// sortL and induceL scan sa upwards from bucket heads and, for each suffix
// they meet whose predecessor is L-type, put the predecessor at the head of
// its bucket; the first is the sentinel's, the final suffix. sortL, sorting
// LMS substrings, erases an entry once used and restores a complemented
// one; induceL complements every entry so that induceS, which undoes that,
// leaves it alone.
func sortL[T byte | int32](t []T, sa, bkt []int32) {
	putL(t, sa, bkt, int32(len(t)))
	for i, j := range sa {
		if j > 0 {
			sa[i] = 0
			putL(t, sa, bkt, j)
		} else if j < 0 {
			sa[i] = ^j
		}
	}
}

func induceL[T byte | int32](t []T, sa, bkt []int32) {
	putL(t, sa, bkt, int32(len(t)))
	for i := range sa {
		j := sa[i]
		sa[i] = ^j
		if j > 0 {
			putL(t, sa, bkt, j)
		}
	}
}

// sortS and induceS scan sa downwards from bucket tails and, for each
// suffix they meet whose predecessor is S-type, put the predecessor at the
// tail of its bucket, complemented if its own predecessor is L-type: it is
// an LMS position, already where it belongs. sortS erases an entry once
// used, which leaves exactly those; induceS undoes every complement on the
// way (suffix 0 is complemented only so that the scan restores it like the
// rest) and sa ends as the suffix array.
func sortS[T byte | int32](t []T, sa, bkt []int32) {
	for i := len(sa) - 1; i >= 0; i-- {
		j := sa[i]
		if j <= 0 {
			continue
		}
		sa[i] = 0
		j--
		c := t[j]
		if j > 0 && t[j-1] > c {
			j = ^j
		}
		bkt[c]--
		sa[bkt[c]] = j
	}
}

func induceS[T byte | int32](t []T, sa, bkt []int32) {
	for i := len(sa) - 1; i >= 0; i-- {
		j := sa[i]
		if j <= 0 {
			sa[i] = ^j
			continue
		}
		j--
		c := t[j]
		if j == 0 || t[j-1] > c {
			j = ^j
		}
		bkt[c]--
		sa[bkt[c]] = j
	}
}
