package cluster

// Sketch dimensions: four independent rows keep the collision
// overestimate negligible at artifact-key cardinalities (dozens of
// distinct keys per node), and 512 counters per row cost 8 KiB total.
const (
	sketchDepth = 4
	sketchWidth = 512
)

// Sketch is a count-min frequency sketch with a top-K candidate table on
// top: Add counts an access, Hot answers "is this key currently among the
// K most-accessed keys seen more than once?" — the admission test for
// caching a peer-fetched artifact locally and the trigger for replicating
// an owned artifact to ring successors. Ties break by key string, so two
// runs observing the same access multiset agree on hotness. Not
// goroutine-safe; the Node serializes access.
type Sketch struct {
	rows [sketchDepth][sketchWidth]uint32
	// cand maps candidate keys to their current count-min estimate. It is
	// pruned to candLimit entries (dropping the smallest) so the sketch
	// stays O(K) even under an adversarial key flood.
	cand map[string]uint32
	k    int
}

// NewSketch returns a sketch admitting the top k keys. k <= 0 yields a
// sketch whose Hot is always false.
func NewSketch(k int) *Sketch {
	return &Sketch{cand: make(map[string]uint32), k: k}
}

func (s *Sketch) candLimit() int { return 4 * s.k }

// Add counts one access to key and returns its new estimate.
func (s *Sketch) Add(key string) uint32 {
	if s.k <= 0 {
		return 0
	}
	est := ^uint32(0)
	h1, h2 := sketchHash(key)
	for d := 0; d < sketchDepth; d++ {
		idx := (h1 + uint64(d)*h2) % sketchWidth
		s.rows[d][idx]++
		if c := s.rows[d][idx]; c < est {
			est = c
		}
	}
	s.cand[key] = est
	if len(s.cand) > s.candLimit() {
		s.prune()
	}
	return est
}

// Hot reports whether key ranks in the top K candidates with an estimate
// of at least 2 (a key seen once is never hot — admission and replication
// exist for repeated traffic).
func (s *Sketch) Hot(key string) bool {
	c, ok := s.cand[key]
	if !ok || c < 2 || s.k <= 0 {
		return false
	}
	rank := 0
	for k2, c2 := range s.cand {
		if c2 > c || (c2 == c && k2 < key) {
			rank++
			if rank >= s.k {
				return false
			}
		}
	}
	return true
}

// prune drops the lowest-count candidates down to candLimit, ties broken
// by key (the larger goes) so pruning is deterministic. Add grows the
// table one key at a time, so there is one victim and one pass finds it.
func (s *Sketch) prune() {
	for len(s.cand) > s.candLimit() {
		victim, low := "", ^uint32(0)
		for k, c := range s.cand {
			if c < low || (c == low && k > victim) {
				victim, low = k, c
			}
		}
		delete(s.cand, victim)
	}
}

// sketchHash derives two independent 64-bit hashes for double hashing,
// reusing the ring's finalized hash (raw FNV's structured output causes
// heavy counter collisions on similar keys): h2 is the hash of key with a
// 0x9e byte appended, continued from key's own FNV state.
func sketchHash(key string) (uint64, uint64) {
	raw := fnv1a(fnvOffset64, key)
	h1 := mix64(raw)
	h2 := mix64(fnv1a(raw, "\x9e")) | 1 // odd, so strides cover the row
	return h1, h2
}
