package proxy

import (
	"sync"

	"repro/internal/codec"
	"repro/internal/selective"
)

// cacheKey identifies one compressed artifact: a named file at a specific
// registration generation, compressed under a scheme and a decision
// policy. The generation makes entries for replaced file content
// unreachable without a global invalidation scan.
type cacheKey struct {
	name   string
	gen    uint64
	scheme codec.Scheme
	fp     string
}

// cacheShards is the server cache's lock-domain count.
const cacheShards = 16

// entryOverhead approximates the bookkeeping cost of a cached entry
// beyond its payload bytes, so the byte budget does not undercount many
// tiny artifacts.
const entryOverhead = 128

// cacheEntry is one artifact on a shard's intrusive LRU list.
type cacheEntry struct {
	key        cacheKey
	blocks     []selective.Block
	bytes      int64
	prev, next *cacheEntry
}

// cacheShard is one lock domain of the cache: a map for lookup and a
// doubly-linked LRU list (sentinel head; head.next is most recent).
type cacheShard struct {
	mu       sync.Mutex
	entries  map[cacheKey]*cacheEntry
	head     cacheEntry // sentinel
	curBytes int64
	budget   int64
}

func (sh *cacheShard) init(budget int64) {
	sh.entries = make(map[cacheKey]*cacheEntry)
	sh.head.prev = &sh.head
	sh.head.next = &sh.head
	sh.budget = budget
}

func (sh *cacheShard) unlink(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (sh *cacheShard) pushFront(e *cacheEntry) {
	e.next = sh.head.next
	e.prev = &sh.head
	sh.head.next.prev = e
	sh.head.next = e
}

// blockCache is the sharded, byte-budgeted artifact cache. The budget is
// split evenly across shards so eviction decisions never take a global
// lock.
type blockCache struct {
	shards  []cacheShard
	metrics *metrics

	// floors maps a file name to the minimum generation put accepts for
	// it. One name's generations land on different shards (shardFor mixes
	// the generation into the hash), so the floor must be global: without
	// it, a singleflight fill racing a generation bump can re-insert a
	// stale-generation artifact after the bump's invalidation scan ran.
	floorMu sync.RWMutex
	floors  map[string]uint64
}

func newBlockCache(totalBytes int64, nShards int, m *metrics) *blockCache {
	c := &blockCache{shards: make([]cacheShard, nShards), metrics: m, floors: make(map[string]uint64)}
	per := totalBytes / int64(nShards)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].init(per)
	}
	return c
}

// shardFor hashes k with 32-bit FNV-1a over the name, the scheme byte, the
// generation's low four bytes and the fingerprint. It runs on every get,
// so it is written out over the strings rather than through hash/fnv,
// which costs a hasher and three byte-slice copies per call.
func (c *blockCache) shardFor(k cacheKey) *cacheShard {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(k.name); i++ {
		h = (h ^ uint32(k.name[i])) * prime32
	}
	h = (h ^ uint32(byte(k.scheme))) * prime32
	for shift := 0; shift < 32; shift += 8 {
		h = (h ^ uint32(byte(k.gen>>shift))) * prime32
	}
	for i := 0; i < len(k.fp); i++ {
		h = (h ^ uint32(k.fp[i])) * prime32
	}
	return &c.shards[h%uint32(len(c.shards))]
}

// entrySize is the budget charge for caching blocks.
func entrySize(k cacheKey, blocks []selective.Block) int64 {
	n := int64(entryOverhead + len(k.name) + len(k.fp))
	for _, b := range blocks {
		n += int64(len(b.Payload)) + 32
	}
	return n
}

// get returns the cached block stream for k and refreshes its recency.
func (c *blockCache) get(k cacheKey) ([]selective.Block, bool) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[k]
	if !ok {
		return nil, false
	}
	sh.unlink(e)
	sh.pushFront(e)
	return e.blocks, true
}

// put inserts (or replaces) k's block stream, evicting least-recently-used
// entries until the shard fits its budget. Artifacts larger than the whole
// shard budget are rejected rather than churning the shard empty.
func (c *blockCache) put(k cacheKey, blocks []selective.Block) {
	c.floorMu.RLock()
	floor := c.floors[k.name]
	c.floorMu.RUnlock()
	if k.gen < floor {
		// A fill for an invalidated generation finished after the bump:
		// caching it would resurrect stale content for the cache's
		// lifetime, because no future invalidation scan targets it.
		return
	}
	size := entrySize(k, blocks)
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if size > sh.budget {
		if c.metrics != nil {
			c.metrics.cacheRejects.Add(1)
		}
		return
	}
	if old, ok := sh.entries[k]; ok {
		sh.unlink(old)
		delete(sh.entries, k)
		sh.curBytes -= old.bytes
	}
	for sh.curBytes+size > sh.budget && sh.head.prev != &sh.head {
		lru := sh.head.prev
		sh.unlink(lru)
		delete(sh.entries, lru.key)
		sh.curBytes -= lru.bytes
		if c.metrics != nil {
			c.metrics.evictions.Add(1)
		}
	}
	e := &cacheEntry{key: k, blocks: blocks, bytes: size}
	sh.entries[k] = e
	sh.pushFront(e)
	sh.curBytes += size
}

// invalidate raises name's generation floor to minGen and drops every
// entry below it. Register (and cluster-propagated generation bumps) call
// this; the floor closes the race where a singleflight fill for the old
// generation completes after the scan and would otherwise re-insert the
// stale artifact.
func (c *blockCache) invalidate(name string, minGen uint64) {
	c.floorMu.Lock()
	if c.floors[name] < minGen {
		c.floors[name] = minGen
	}
	c.floorMu.Unlock()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, e := range sh.entries {
			if k.name == name && k.gen < minGen {
				sh.unlink(e)
				delete(sh.entries, k)
				sh.curBytes -= e.bytes
			}
		}
		sh.mu.Unlock()
	}
}

// len and bytes report total occupancy across shards.
func (c *blockCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

func (c *blockCache) bytes() int64 {
	var n int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.curBytes
		sh.mu.Unlock()
	}
	return n
}
