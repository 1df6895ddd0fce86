package proxy

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/selective"
)

// Tests for the store's finished half: the byte-budgeted LRU, the
// generation floor, and what a flight's finish may and may not admit.

// blocksOfSize builds a one-block stream whose cache charge is
// predictable: entrySize = entryOverhead + len(name) + len(fp) + payload + 32.
func blocksOfSize(payload int) []selective.Block {
	return []selective.Block{{RawLen: payload, Payload: make([]byte, payload)}}
}

func key1(name string) ArtifactKey {
	return ArtifactKey{Name: name, Gen: 1, Scheme: codec.Gzip, FP: fpAlways}
}

func testStore(budget int64) *store {
	return newStore(budget, newMetrics(obs.NewRegistry()))
}

// occupancy reads the entries and bytes held off the gauges the store
// keeps, which is where Stats and /metrics read them.
func (st *store) occupancy() (entries, bytes int64) {
	return st.metrics.cacheEntries.Value(), st.metrics.cacheBytes.Value()
}

func (st *store) cached(k ArtifactKey) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.entries[k]
	return ok
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	// Budget fits exactly three single-block entries of this shape.
	per := entrySize(key1("aaaa"), blocksOfSize(1000))
	st := testStore(3 * per)

	for _, n := range []string{"aaaa", "bbbb", "cccc"} {
		st.admit(key1(n), blocksOfSize(1000))
	}
	if got, _ := st.occupancy(); got != 3 {
		t.Fatalf("entries = %d, want 3", got)
	}
	// Refresh "aaaa" so "bbbb" is now least recently used.
	if _, ok := st.get(key1("aaaa")); !ok {
		t.Fatal("aaaa missing")
	}
	st.admit(key1("dddd"), blocksOfSize(1000))

	if st.cached(key1("bbbb")) {
		t.Error("bbbb should have been evicted as LRU")
	}
	for _, n := range []string{"aaaa", "cccc", "dddd"} {
		if !st.cached(key1(n)) {
			t.Errorf("%s evicted, want retained", n)
		}
	}
	if got := st.metrics.evictions.Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

func TestCacheByteAccounting(t *testing.T) {
	st := testStore(1 << 20)
	want := int64(0)
	for i := 0; i < 10; i++ {
		k := key1(fmt.Sprintf("file%04d", i))
		b := blocksOfSize(100 * (i + 1))
		st.admit(k, b)
		want += entrySize(k, b)
	}
	if _, got := st.occupancy(); got != want {
		t.Fatalf("bytes = %d, want %d", got, want)
	}
	// Replacing a key must not double-count.
	k := key1("file0003")
	st.admit(k, blocksOfSize(5000))
	want += entrySize(k, blocksOfSize(5000)) - entrySize(k, blocksOfSize(400))
	if _, got := st.occupancy(); got != want {
		t.Fatalf("bytes after replace = %d, want %d", got, want)
	}
	// Registering the name (generation 1, which the entry is not below)
	// keeps it; registering it again frees the bytes.
	st.register("file0003", nil)
	if _, got := st.occupancy(); got != want {
		t.Fatalf("bytes after a registration at the entry's generation = %d, want %d", got, want)
	}
	st.register("file0003", nil)
	want -= entrySize(k, blocksOfSize(5000))
	if n, got := st.occupancy(); got != want || n != 9 {
		t.Fatalf("after the drop: %d entries, %d bytes; want 9, %d", n, got, want)
	}
}

func TestCacheBudgetNeverExceeded(t *testing.T) {
	budget := int64(8 * 1024)
	st := testStore(budget)
	for i := 0; i < 200; i++ {
		st.admit(key1(fmt.Sprintf("f%03d", i)), blocksOfSize(500+i))
		if _, got := st.occupancy(); got > budget {
			t.Fatalf("after admission %d: %d bytes > budget %d", i, got, budget)
		}
	}
	if st.metrics.evictions.Value() == 0 {
		t.Error("expected evictions under a tight budget")
	}
}

// TestCacheRejectsOversizedArtifact: the refusal is at the whole budget —
// an artifact that exactly fills it is cached (and evicts everything else),
// one byte more is refused and evicts nothing.
func TestCacheRejectsOversizedArtifact(t *testing.T) {
	const budget = 4096
	st := testStore(budget)
	small, fills, huge := key1("small"), key1("fills"), key1("huge!")
	fit := budget - int(entrySize(fills, blocksOfSize(0)))

	st.admit(small, blocksOfSize(100))
	st.admit(huge, blocksOfSize(fit+1))
	if st.cached(huge) {
		t.Error("artifact larger than the whole budget was cached")
	}
	if !st.cached(small) {
		t.Error("oversized admission evicted an unrelated resident entry")
	}
	if got := st.metrics.cacheRejects.Value(); got != 1 {
		t.Errorf("rejects = %d, want 1", got)
	}
	st.admit(fills, blocksOfSize(fit))
	if n, bytes := st.occupancy(); !st.cached(fills) || n != 1 || bytes != budget {
		t.Errorf("an artifact of exactly the budget: cached=%v, %d entries, %d bytes; want it alone at %d",
			st.cached(fills), n, bytes, budget)
	}
	if got := st.metrics.cacheRejects.Value(); got != 1 {
		t.Errorf("rejects = %d after an artifact that fits, want 1", got)
	}
}

// TestArtifactUpToBudgetIsCached: the byte budget is one budget. Split 16
// ways, as it once was, an 8 MiB cache refused this 1 MiB artifact twice
// and compressed it twice.
func TestArtifactUpToBudgetIsCached(t *testing.T) {
	content := make([]byte, 1<<20)
	rand.New(rand.NewSource(23)).Read(content) // incompressible: the artifact is no smaller
	srv := NewServerWith(nil, Config{CacheBytes: 8 << 20})
	srv.Register("f", content)
	for i := 0; i < 2; i++ {
		if err := srv.Precompress("f", codec.Gzip); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.Compressions != 1 || st.CacheRejects != 0 || st.CacheEntries != 1 {
		t.Errorf("two requests for a 1 MiB artifact in an 8 MiB cache: %d compressions, %d rejects, %d entries; want 1, 0, 1",
			st.Compressions, st.CacheRejects, st.CacheEntries)
	}
}

func TestCacheGenerationsDoNotAlias(t *testing.T) {
	st := testStore(1 << 20)
	k1 := key1("f")
	k2 := k1
	k2.Gen = 2
	st.admit(k1, blocksOfSize(10))
	if _, ok := st.get(k2); ok {
		t.Fatal("generation 2 read generation 1's artifact")
	}
	st.admit(k2, blocksOfSize(20))
	b1, _ := st.get(k1)
	b2, _ := st.get(k2)
	if len(b1[0].Payload) != 10 || len(b2[0].Payload) != 20 {
		t.Fatal("generations aliased")
	}
	// A generation past the newest drops both.
	st.register("f", nil)
	st.syncGeneration("f", k2.Gen+1)
	if n, _ := st.occupancy(); n != 0 {
		t.Fatalf("%d entries after the file moved past both generations", n)
	}
}

// TestCacheEvictionDuringSingleflight interleaves a slow flight with
// admissions that churn the cache: exactly one build may run (a request
// joins the flight or, after it, hits what it left), the finished artifact
// must stay within budget, and every reader must receive the built blocks.
func TestCacheEvictionDuringSingleflight(t *testing.T) {
	budget := int64(4 * 1024)
	st := testStore(budget)

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
			a, leader, err := st.open(target, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if leader {
				// Only request 0 can lead: whoever arrives once its flight
				// has finished finds the artifact it left.
				if i == 0 {
					close(building)
					<-release
				}
				builds.Add(1)
				copy(a.blocks, blocksOfSize(600))
				st.finish(target, a.f, true, nil)
			}
			if results[i], err = a.whole(); err != nil {
				t.Error(err)
			}
		}(i)
	}

	// While the leader is parked mid-build, churn the cache so evictions
	// interleave with the flight.
	<-building
	for i := 0; i < 50; i++ {
		st.admit(key1(fmt.Sprintf("churn%02d", i)), blocksOfSize(700))
	}
	close(release)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds ran for one contested key, want 1", n)
	}
	for i, b := range results {
		if len(b) != 1 || len(b[0].Payload) != 600 {
			t.Fatalf("reader %d got wrong blocks: %v", i, b)
		}
	}
	if _, got := st.occupancy(); got > budget {
		t.Fatalf("budget exceeded after interleaved churn: %d > %d", got, budget)
	}
	if st.metrics.evictions.Value() == 0 {
		t.Error("expected evictions during churn")
	}
}

// TestCacheInvalidateFloorRejectsStaleFill: once a file's generation has
// moved on, an artifact of the old one — a build or a peer's push that was
// already under way — must be refused: nothing would ever drop it again.
func TestCacheInvalidateFloorRejectsStaleFill(t *testing.T) {
	st := testStore(1 << 20)
	k1 := key1("f")
	k2 := k1
	k2.Gen = 2

	st.register("f", nil)
	st.admit(k1, blocksOfSize(100))
	st.register("f", nil)
	if st.cached(k1) {
		t.Fatal("the bump left the stale-generation entry cached")
	}
	// The racing fill completes after the bump: must stay out.
	st.admit(k1, blocksOfSize(100))
	if st.cached(k1) {
		t.Fatal("stale-generation fill admitted after the bump")
	}
	// The new generation is admitted normally.
	st.admit(k2, blocksOfSize(100))
	if !st.cached(k2) {
		t.Fatal("current-generation artifact rejected")
	}
	// A late, lower generation from a peer must not lower the floor.
	st.syncGeneration("f", 1)
	st.admit(k1, blocksOfSize(100))
	if st.cached(k1) {
		t.Fatal("floor lowered by a stale invalidation")
	}
	if !st.cached(k2) {
		t.Fatal("stale invalidation dropped the current generation")
	}
}

// TestAdmissionRidesTheFlight: an admission for a key in the air (the peer
// consult's hot-key AdmitArtifact always is one) caches nothing then — the
// key stays joinable, never finished as well — and is made by finish, even
// of a flight that would not otherwise be kept; without one, such a flight
// leaves nothing.
func TestAdmissionRidesTheFlight(t *testing.T) {
	st := testStore(1 << 20)
	for _, admit := range []bool{true, false} {
		k := key1(fmt.Sprint("admit-", admit))
		a, leader, _ := st.open(k, 1)
		if !leader {
			t.Fatal("first request did not lead")
		}
		copy(a.blocks, blocksOfSize(600))
		if admit {
			st.admit(k, a.blocks)
		}
		if again, led, _ := st.open(k, 1); st.cached(k) || again.f != a.f || led {
			t.Fatalf("admit=%v, flight in the air: cached=%v, next request joined=%v led=%v; want false, true, false",
				admit, st.cached(k), again.f == a.f, led)
		}
		st.finish(k, a.f, false, nil)
		if st.cached(k) != admit {
			t.Errorf("admit=%v: cached=%v once the flight finished", admit, st.cached(k))
		}
		if b, err := a.whole(); err != nil || len(b[0].Payload) != 600 {
			t.Errorf("admit=%v: the flight's reader got %v, %v", admit, b, err)
		}
	}
	st.drain()
}

// TestGenerationBumpDuringSingleflightFill: a Register landing while a
// build for the old generation is mid-compression must not let that build
// resurrect the stale artifact when it completes. The onCompress hook
// fires inside the flight, after the leader won it and before its finish.
func TestGenerationBumpDuringSingleflightFill(t *testing.T) {
	srv := NewServerWith(nil, Config{CacheBytes: 1 << 20})
	oldContent := make([]byte, 4096)
	newContent := make([]byte, 4096)
	for i := range newContent {
		newContent[i] = byte(i)
	}
	srv.Register("f", oldContent) // generation 1

	bumped := false
	srv.onCompress = func(k ArtifactKey) {
		if !bumped && k.Gen == 1 {
			bumped = true
			srv.Register("f", newContent) // generation 2
		}
	}
	stale := key1("f")
	a, err := srv.openArtifact(stale, oldContent, selective.AlwaysCompress{}, nil, false)
	if err == nil {
		_, err = a.whole()
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bumped {
		t.Fatal("test hook never fired: fill did not run a compression")
	}
	if srv.store.cached(stale) {
		t.Fatal("stale-generation artifact cached after a concurrent generation bump")
	}
	// The current generation builds and caches cleanly.
	if err := srv.Precompress("f", codec.Gzip); err != nil {
		t.Fatal(err)
	}
	fresh := stale
	fresh.Gen = 2
	if !srv.store.cached(fresh) {
		t.Fatal("current-generation artifact not cached")
	}
}
