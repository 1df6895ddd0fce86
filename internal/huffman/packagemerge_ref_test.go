package huffman

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// buildLengthsReference is the original list-materialising package-merge
// implementation, kept verbatim as the differential oracle for the
// counting-based BuildLengthsInto. Its output — including how the unstable
// sort resolves equal-weight ties — is pinned by committed golden traces,
// so the fast path must reproduce it bit for bit.
func buildLengthsReference(freq []int, maxBits int) ([]uint8, error) {
	n := len(freq)
	lengths := make([]uint8, n)
	var used []int
	for i, f := range freq {
		if f < 0 {
			return nil, fmt.Errorf("huffman: negative frequency for symbol %d", i)
		}
		if f > 0 {
			used = append(used, i)
		}
	}
	switch len(used) {
	case 0:
		return lengths, nil
	case 1:
		lengths[used[0]] = 1
		return lengths, nil
	}
	if maxBits < 1 || len(used) > 1<<maxBits {
		return nil, fmt.Errorf("huffman: %d symbols cannot fit in %d bits", len(used), maxBits)
	}

	type item struct {
		weight int64
		count  []int32 // parallel to used
	}
	leaves := make([]item, len(used))
	for i, s := range used {
		c := make([]int32, len(used))
		c[i] = 1
		leaves[i] = item{weight: int64(freq[s]), count: c}
	}
	sort.Slice(leaves, func(a, b int) bool { return leaves[a].weight < leaves[b].weight })

	merge := func(a, b []item) []item {
		out := make([]item, 0, len(a)+len(b))
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			if a[i].weight <= b[j].weight {
				out = append(out, a[i])
				i++
			} else {
				out = append(out, b[j])
				j++
			}
		}
		out = append(out, a[i:]...)
		out = append(out, b[j:]...)
		return out
	}
	pairUp := func(items []item) []item {
		out := make([]item, 0, len(items)/2)
		for i := 0; i+1 < len(items); i += 2 {
			c := make([]int32, len(used))
			for k := range c {
				c[k] = items[i].count[k] + items[i+1].count[k]
			}
			out = append(out, item{weight: items[i].weight + items[i+1].weight, count: c})
		}
		return out
	}

	packages := append([]item{}, leaves...)
	for level := 1; level < maxBits; level++ {
		packages = merge(leaves, pairUp(packages))
	}
	take := 2*len(used) - 2
	counts := make([]int32, len(used))
	for _, it := range packages[:take] {
		for k, c := range it.count {
			counts[k] += c
		}
	}
	for k, s := range used {
		if counts[k] < 1 || counts[k] > int32(maxBits) {
			return nil, fmt.Errorf("huffman: package-merge produced length %d for symbol %d", counts[k], s)
		}
		lengths[s] = uint8(counts[k])
	}
	return lengths, nil
}

// TestBuildLengthsMatchesReference drives the counting package-merge
// against the historical implementation across adversarial shapes: skewed
// and flat distributions, heavy equal-weight ties (where the unstable sort
// permutation decides individual symbol lengths), tight maxBits that force
// length-limiting, and the DEFLATE alphabet sizes the encoder uses.
func TestBuildLengthsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct {
		symbols int
		maxBits int
	}{
		{286, 15}, {30, 15}, {19, 7}, {2, 1}, {4, 2}, {16, 4}, {258, 9},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 200; trial++ {
			freq := make([]int, sh.symbols)
			mode := trial % 4
			for i := range freq {
				switch mode {
				case 0: // sparse geometric
					if rng.Intn(3) == 0 {
						freq[i] = 1 << rng.Intn(20)
					}
				case 1: // dense uniform with many ties
					freq[i] = 1 + rng.Intn(4)
				case 2: // all-equal (pure tie-breaking)
					freq[i] = 7
				default: // mixed heavy/light
					if rng.Intn(2) == 0 {
						freq[i] = rng.Intn(1000)
					}
				}
			}
			want, wantErr := buildLengthsReference(freq, sh.maxBits)
			got, gotErr := BuildLengths(freq, sh.maxBits)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("symbols=%d maxBits=%d trial=%d: err mismatch ref=%v got=%v",
					sh.symbols, sh.maxBits, trial, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			for s := range want {
				if want[s] != got[s] {
					t.Fatalf("symbols=%d maxBits=%d trial=%d mode=%d: symbol %d length %d, reference %d\nfreq=%v",
						sh.symbols, sh.maxBits, trial, mode, s, got[s], want[s], freq)
				}
			}
		}
	}
}
