package proxy

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/selective"
)

// blocksOfSize builds a one-block stream whose cache charge is
// predictable: entrySize = entryOverhead + len(name) + payload + 32.
func blocksOfSize(payload int) []selective.Block {
	return []selective.Block{{RawLen: payload, Payload: make([]byte, payload)}}
}

func key1(name string) cacheKey {
	return cacheKey{name: name, gen: 1, scheme: codec.Gzip, fp: fpAlways}
}

// oneShardCache keeps every key in a single lock domain so eviction order
// is fully deterministic.
func oneShardCache(budget int64, m *metrics) *blockCache {
	return newBlockCache(budget, 1, m)
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	// Budget fits exactly three single-block entries of this shape.
	name := "aaaa"
	per := entrySize(key1(name), blocksOfSize(1000))
	m := newMetrics(obs.NewRegistry())
	c := oneShardCache(3*per, m)

	for _, n := range []string{"aaaa", "bbbb", "cccc"} {
		c.put(key1(n), blocksOfSize(1000))
	}
	if got := c.len(); got != 3 {
		t.Fatalf("len = %d, want 3", got)
	}
	// Refresh "aaaa" so "bbbb" is now least recently used.
	if _, ok := c.get(key1("aaaa")); !ok {
		t.Fatal("aaaa missing")
	}
	c.put(key1("dddd"), blocksOfSize(1000))

	if _, ok := c.get(key1("bbbb")); ok {
		t.Error("bbbb should have been evicted as LRU")
	}
	for _, n := range []string{"aaaa", "cccc", "dddd"} {
		if _, ok := c.get(key1(n)); !ok {
			t.Errorf("%s evicted, want retained", n)
		}
	}
	if got := m.evictions.Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

func TestCacheByteAccounting(t *testing.T) {
	m := newMetrics(obs.NewRegistry())
	c := oneShardCache(1<<20, m)
	want := int64(0)
	for i := 0; i < 10; i++ {
		k := key1(fmt.Sprintf("file%04d", i))
		b := blocksOfSize(100 * (i + 1))
		c.put(k, b)
		want += entrySize(k, b)
	}
	if got := c.bytes(); got != want {
		t.Fatalf("bytes = %d, want %d", got, want)
	}
	// Replacing a key must not double-count.
	k := key1("file0003")
	c.put(k, blocksOfSize(5000))
	want += entrySize(k, blocksOfSize(5000)) - entrySize(k, blocksOfSize(400))
	if got := c.bytes(); got != want {
		t.Fatalf("bytes after replace = %d, want %d", got, want)
	}
	// Invalidating past the entry's generation frees the bytes.
	c.invalidate("file0003", k.gen+1)
	want -= entrySize(k, blocksOfSize(5000))
	if got := c.bytes(); got != want {
		t.Fatalf("bytes after drop = %d, want %d", got, want)
	}
	if got := c.len(); got != 9 {
		t.Fatalf("len after drop = %d, want 9", got)
	}
}

func TestCacheBudgetNeverExceeded(t *testing.T) {
	m := newMetrics(obs.NewRegistry())
	budget := int64(8 * 1024)
	c := oneShardCache(budget, m)
	for i := 0; i < 200; i++ {
		c.put(key1(fmt.Sprintf("f%03d", i)), blocksOfSize(500+i))
		if got := c.bytes(); got > budget {
			t.Fatalf("after put %d: %d bytes > budget %d", i, got, budget)
		}
	}
	if m.evictions.Value() == 0 {
		t.Error("expected evictions under a tight budget")
	}
}

func TestCacheRejectsOversizedArtifact(t *testing.T) {
	m := newMetrics(obs.NewRegistry())
	c := oneShardCache(1024, m)
	c.put(key1("small"), blocksOfSize(100))
	c.put(key1("huge"), blocksOfSize(10_000))
	if _, ok := c.get(key1("huge")); ok {
		t.Error("artifact larger than the shard budget was cached")
	}
	if _, ok := c.get(key1("small")); !ok {
		t.Error("oversized put evicted an unrelated resident entry")
	}
	if got := m.cacheRejects.Value(); got != 1 {
		t.Errorf("rejects = %d, want 1", got)
	}
}

func TestCacheGenerationsDoNotAlias(t *testing.T) {
	c := oneShardCache(1<<20, nil)
	k1 := cacheKey{name: "f", gen: 1, scheme: codec.Gzip, fp: fpAlways}
	k2 := cacheKey{name: "f", gen: 2, scheme: codec.Gzip, fp: fpAlways}
	c.put(k1, blocksOfSize(10))
	if _, ok := c.get(k2); ok {
		t.Fatal("generation 2 read generation 1's artifact")
	}
	c.put(k2, blocksOfSize(20))
	b1, _ := c.get(k1)
	b2, _ := c.get(k2)
	if len(b1[0].Payload) != 10 || len(b2[0].Payload) != 20 {
		t.Fatal("generations aliased")
	}
	// Invalidating past the newest removes both generations.
	c.invalidate("f", k2.gen+1)
	if c.len() != 0 {
		t.Fatalf("len = %d after invalidate", c.len())
	}
}

// TestShardForMatchesFNV pins shardFor's inline hash to hash/fnv's 32-bit
// FNV-1a over the same bytes, the function it replaced: every key stays on
// the shard it was on.
func TestShardForMatchesFNV(t *testing.T) {
	c := newBlockCache(64<<20, 13, nil)
	for i := 0; i < 500; i++ {
		k := cacheKey{
			name:   fmt.Sprintf("dir-%d/file-%d.dat", i%7, i),
			gen:    uint64(i)*0x01010101 + 1<<33,
			scheme: codec.Scheme(1 + i%4),
			fp:     []string{fpAlways, fpNever, "dyn:v2:class1"}[i%3],
		}
		h := fnv.New32a()
		h.Write([]byte(k.name))
		h.Write([]byte{byte(k.scheme), byte(k.gen), byte(k.gen >> 8), byte(k.gen >> 16), byte(k.gen >> 24)})
		h.Write([]byte(k.fp))
		if got, want := c.shardFor(k), &c.shards[h.Sum32()%13]; got != want {
			t.Fatalf("key %+v moved shards", k)
		}
	}
}

func TestCacheShardDistribution(t *testing.T) {
	c := newBlockCache(64<<20, 16, nil)
	seen := make(map[*cacheShard]int)
	for i := 0; i < 2000; i++ {
		k := cacheKey{name: fmt.Sprintf("file-%d.dat", i), gen: 1, scheme: codec.Scheme(1 + i%4), fp: fpAlways}
		seen[c.shardFor(k)]++
	}
	if len(seen) != 16 {
		t.Fatalf("keys landed on %d/16 shards", len(seen))
	}
	for sh, n := range seen {
		// 2000 keys over 16 shards averages 125; a shard under 40 or over
		// 320 means the hash is badly skewed.
		if n < 40 || n > 320 {
			t.Errorf("shard %p got %d keys, want roughly balanced", sh, n)
		}
	}
}

// TestCacheEvictionDuringSingleflight interleaves a slow singleflight
// build with concurrent puts that churn the shard: exactly one build may
// run (followers either share the flight or hit the cache the leader
// filled — the server's double-check pattern), the leader's eventual put
// must stay within budget, and every waiter must receive the built blocks.
func TestCacheEvictionDuringSingleflight(t *testing.T) {
	m := newMetrics(obs.NewRegistry())
	budget := int64(4 * 1024)
	c := oneShardCache(budget, m)
	var g flightGroup

	target := key1("contested")
	building := make(chan struct{})
	release := make(chan struct{})
	var builds atomic.Int32

	var wg sync.WaitGroup
	results := make([][]selective.Block, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i != 0 {
				<-building
			}
			f, leader := g.join(target, 1)
			if leader {
				// Only request 0 can lead the first flight; a late arrival
				// leads one after that flight completed, and its double-check
				// must find the leader's artifact instead of rebuilding.
				if b, ok := c.get(target); ok {
					f.fill(b)
				} else {
					if i == 0 {
						close(building)
						<-release
					}
					builds.Add(1)
					copy(f.blocks, blocksOfSize(600))
					c.put(target, f.blocks)
					f.publish(1)
				}
				g.finish(target, f, nil)
			}
			blocks, err := artifact{blocks: f.blocks, f: f}.whole()
			if err != nil {
				t.Error(err)
			}
			results[i] = blocks
		}(i)
	}

	// While the leader is parked mid-build, churn the shard so evictions
	// interleave with the flight.
	<-building
	for i := 0; i < 50; i++ {
		c.put(key1(fmt.Sprintf("churn%02d", i)), blocksOfSize(700))
	}
	close(release)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds ran for one contested key, want 1", n)
	}
	for i, b := range results {
		if len(b) != 1 || len(b[0].Payload) != 600 {
			t.Fatalf("waiter %d got wrong blocks: %v", i, b)
		}
	}
	if got := c.bytes(); got > budget {
		t.Fatalf("budget exceeded after interleaved churn: %d > %d", got, budget)
	}
	if m.evictions.Value() == 0 {
		t.Error("expected evictions during churn")
	}
}

// TestCacheInvalidateFloorRejectsStaleFill: after a generation-bump
// invalidation, a put for the invalidated generation (a singleflight fill
// that was already past the invalidation scan) must be rejected by the
// generation floor — one name's generations land on different shards, so
// only a global floor can close this race.
func TestCacheInvalidateFloorRejectsStaleFill(t *testing.T) {
	c := newBlockCache(1<<20, 8, nil)
	k1 := key1("f")
	k2 := k1
	k2.gen = 2

	c.put(k1, blocksOfSize(100))
	c.invalidate("f", 2)
	if _, ok := c.get(k1); ok {
		t.Fatal("invalidate left the stale-generation entry cached")
	}
	// The racing fill completes after the scan: must stay out.
	c.put(k1, blocksOfSize(100))
	if _, ok := c.get(k1); ok {
		t.Fatal("stale-generation fill re-inserted after invalidate")
	}
	// The new generation is admitted normally.
	c.put(k2, blocksOfSize(100))
	if _, ok := c.get(k2); !ok {
		t.Fatal("current-generation artifact rejected")
	}
	// A late, lower invalidation must not lower the floor.
	c.invalidate("f", 1)
	c.put(k1, blocksOfSize(100))
	if _, ok := c.get(k1); ok {
		t.Fatal("floor lowered by a stale invalidation")
	}
	if _, ok := c.get(k2); !ok {
		t.Fatal("stale invalidation dropped the current generation")
	}
}

// TestGenerationBumpDuringSingleflightFill: a Register (generation bump +
// invalidation) landing while a singleflight fill for the old generation
// is mid-compression must not let that fill resurrect the stale artifact
// when it completes. The onCompress hook fires inside the flight, after
// the leader won it but before its put — exactly the window a scan with
// no generation floor leaves open.
func TestGenerationBumpDuringSingleflightFill(t *testing.T) {
	srv := NewServerWith(nil, Config{CacheBytes: 1 << 20})
	oldContent := make([]byte, 4096)
	newContent := make([]byte, 4096)
	for i := range newContent {
		newContent[i] = byte(i)
	}
	srv.Register("f", oldContent) // generation 1

	bumped := false
	srv.onCompress = func(k cacheKey) {
		if !bumped && k.gen == 1 {
			bumped = true
			srv.Register("f", newContent) // generation 2: invalidates below it
		}
	}
	stale := cacheKey{name: "f", gen: 1, scheme: codec.Gzip, fp: fpAlways}
	a, err := srv.openArtifact(stale, oldContent, codec.Gzip, selective.AlwaysCompress{}, nil, false)
	if err == nil {
		_, err = a.whole()
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bumped {
		t.Fatal("test hook never fired: fill did not run a compression")
	}
	if _, ok := srv.cache.get(stale); ok {
		t.Fatal("stale-generation artifact cached after a concurrent generation bump")
	}
	// The current generation builds and caches cleanly.
	if err := srv.Precompress("f", codec.Gzip); err != nil {
		t.Fatal(err)
	}
	fresh := cacheKey{name: "f", gen: 2, scheme: codec.Gzip, fp: fpAlways}
	if _, ok := srv.cache.get(fresh); !ok {
		t.Fatal("current-generation artifact not cached")
	}
}
