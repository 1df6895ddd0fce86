package cluster

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"sort"
	"testing"
)

// refHash64 is hash64 as it was first written, on hash/fnv.
func refHash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// refSketch is the sketch as it stood before prune became a single pass
// and sketchHash stopped building key+"\x9e": the sort-based prune is the
// reference the production sketch is modelled against.
type refSketch struct {
	rows [sketchDepth][sketchWidth]uint32
	cand map[string]uint32
	k    int
}

func (s *refSketch) add(key string) uint32 {
	est := ^uint32(0)
	h1, h2 := refHash64(key), refHash64(key+"\x9e")|1
	for d := 0; d < sketchDepth; d++ {
		idx := (h1 + uint64(d)*h2) % sketchWidth
		s.rows[d][idx]++
		if c := s.rows[d][idx]; c < est {
			est = c
		}
	}
	s.cand[key] = est
	if len(s.cand) > 4*s.k {
		s.prune()
	}
	return est
}

func (s *refSketch) prune() {
	type kc struct {
		k string
		c uint32
	}
	all := make([]kc, 0, len(s.cand))
	for k, c := range s.cand {
		all = append(all, kc{k, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].k < all[j].k
	})
	for _, e := range all[4*s.k:] {
		delete(s.cand, e.k)
	}
}

// TestHash64IsFNV1aMixed pins the spelled-out FNV-1a to hash/fnv: ring
// placement and every golden cluster trace hang off these values.
func TestHash64IsFNV1aMixed(t *testing.T) {
	for _, s := range []string{"", "a", "node-3#17", "page-07.html\x001\x002\x00dyn:v2", "\x9e", string(make([]byte, 300))} {
		if got, want := hash64(s), refHash64(s); got != want {
			t.Errorf("hash64(%q) = %#x, hash/fnv gives %#x", s, got, want)
		}
		h1, h2 := sketchHash(s)
		if w1, w2 := refHash64(s), refHash64(s+"\x9e")|1; h1 != w1 || h2 != w2 {
			t.Errorf("sketchHash(%q) = %#x, %#x, want %#x, %#x", s, h1, h2, w1, w2)
		}
	}
}

// TestSketchMatchesSortBasedPrune drives the sketch and its reference
// through seeded access streams — a few hot keys in a flood of cold ones,
// key populations from below the candidate limit to far above it — and
// requires the same estimate from every Add and the same candidate table
// after it, so every eviction picked the same victim.
func TestSketchMatchesSortBasedPrune(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(8)
		population := []int{2 * k, 5 * k, 40 * k}[rng.Intn(3)]
		got, want := NewSketch(k), &refSketch{cand: make(map[string]uint32), k: k}
		for i := 0; i < 4000; i++ {
			key := fmt.Sprintf("key-%d", rng.Intn(population))
			if rng.Intn(3) == 0 {
				key = fmt.Sprintf("hot-%d", rng.Intn(3))
			}
			if g, w := got.Add(key), want.add(key); g != w {
				t.Fatalf("seed %d, add %d (%s): estimate %d, reference %d", seed, i, key, g, w)
			}
			if !maps.Equal(got.cand, want.cand) {
				t.Fatalf("seed %d, add %d (%s): candidate tables diverged", seed, i, key)
			}
		}
	}
}
