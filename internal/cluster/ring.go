// Package cluster turns N proxy servers into a consistent-hash artifact
// tier: a ring of hashed vnodes places every artifact-cache key
// (file, generation, scheme, decider fingerprint) on exactly one owner
// node, a cache miss on any other node fetches the finished compressed
// artifact from the owner over the PXY-P peer protocol instead of
// recompressing, hot keys are admitted into non-owner caches and
// replicated to ring successors, and generation bumps propagate ring-wide
// invalidations — so cluster-wide compression work per key stays at one
// while aggregate serve throughput scales with node count.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/proxy"
)

// DefaultVnodes is the vnode count per node when Config.Vnodes is 0:
// enough that the largest ownership arc of a small ring stays within a
// few percent of fair share, small enough that ring construction is
// trivially cheap.
const DefaultVnodes = 64

// Ring is an immutable consistent-hash ring over node IDs: each node
// projects Vnodes points onto a 64-bit circle and a key belongs to the
// node owning the first point at or clockwise of the key's hash.
// Construction is deterministic in the node-ID set — two nodes building
// rings from the same membership agree on every key's owner.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // sorted, deduplicated
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over nodes with vnodes points per node (0 selects
// DefaultVnodes). Duplicate node IDs collapse; order does not matter.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := make(map[string]bool, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for _, n := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", n, v)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns the ring's member IDs, sorted.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Owner returns the node owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].node
}

// Successors returns up to k distinct nodes clockwise of key's owner —
// the replica set for a hot key. The owner itself is excluded.
func (r *Ring) Successors(key string, k int) []string {
	if len(r.points) == 0 || k <= 0 {
		return nil
	}
	i := r.search(key)
	owner := r.points[i].node
	out := make([]string, 0, k)
	seen := map[string]bool{owner: true}
	for step := 1; step <= len(r.points) && len(out) < k; step++ {
		n := r.points[(i+step)%len(r.points)].node
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// search returns the index of the first point at or after key's hash,
// wrapping to 0 past the top of the circle.
func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// hash64 is FNV-1a with a splitmix64 finalizer. Raw FNV over short,
// near-sequential strings (vnode labels, file names) leaves visible
// structure in the high bits — measured ownership skew of 3x fair share
// on a 5-node ring — and the avalanche pass removes it.
func hash64(s string) uint64 { return mix64(fnv1a(fnvOffset64, s)) }

// FNV-1a, 64 bits, as hash/fnv computes it — spelled out so that a hash
// can be continued (sketchHash) and costs no hasher and no []byte copy.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// KeyString canonicalizes an artifact key for hashing and sketching. The
// generation is part of the identity: bumping a file's generation moves
// its keys to (usually) a different owner, which is also what makes
// stale-generation fetches detectable at the owner.
func KeyString(k proxy.ArtifactKey) string {
	return fmt.Sprintf("%s\x00%d\x00%d\x00%s", k.Name, k.Gen, int(k.Scheme), k.FP)
}
