package proxy

import (
	"container/list"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/selective"
)

// file is one registration: the content, the generation it was registered
// as, and the content's CRC-32, which ends every response for it — taken
// once at registration, not by a pass over the file per request.
type file struct {
	name    string // the key it is registered under
	content []byte
	gen     uint64
	crc     uint32
}

// entryOverhead approximates the bookkeeping cost of a cached entry
// beyond its payload bytes, so the byte budget does not undercount many
// tiny artifacts.
const entryOverhead = 128

// entry is one finished artifact, the value of an element of the LRU list.
type entry struct {
	key    ArtifactKey
	blocks []selective.Block
	bytes  int64
	// lender is the flight that built blocks here, nil for an artifact
	// obtained elsewhere (a peer's copy, a replication push).
	lender *flight
}

// siblingKey names the artifacts whose codec outputs are the same bytes:
// one file generation under one scheme, whatever the decision policy. That
// holds while every build runs the scheme's codec at level 0 (build does):
// ArtifactKey carries no level, so a build at another level would have to
// add it here.
type siblingKey struct {
	name   string
	gen    uint64
	scheme codec.Scheme
}

func siblingOf(k ArtifactKey) siblingKey { return siblingKey{k.Name, k.Gen, k.Scheme} }

// store is everything the server knows about an artifact key, under one
// lock: the file it was made from and that file's current generation, the
// finished artifacts (an LRU charged against one byte budget) and the
// flights still being built. A key is finished, in the air or absent —
// never two of those — and because the three live behind the same mutex
// open can say which in one step. The generation in the key makes the
// artifacts of replaced content unreachable; files[name].gen is the floor
// below which nothing is admitted.
type store struct {
	mu      sync.Mutex
	files   map[string]file
	entries map[ArtifactKey]*list.Element
	lru     *list.List // of *entry, most recently used first
	bytes   int64
	// budget is Config.CacheBytes, all of it: an artifact up to the whole
	// budget is cached. Not positive disables caching.
	budget  int64
	flights map[ArtifactKey]*flight
	// lenders are the flights of the local builds, in the air or finished
	// and cached, by the blocks they share: whose codec outputs a build
	// takes, or waits for, instead of running the codec. A peer's artifact
	// is never one.
	lenders map[siblingKey][]*flight
	// closed refuses new flights; wg counts the unfinished ones, which is
	// what drain waits for.
	closed bool
	wg     sync.WaitGroup
	// poll, when set (SetPeerFetch, on a virtual clock), is the clock a
	// follower sleeps on, flightPollInterval at a time, until its flight has
	// finished; nil reads behind the builder.
	poll    WallClock
	metrics *metrics
}

const flightPollInterval = 250 * time.Microsecond

func newStore(budget int64, m *metrics) *store {
	return &store{
		files:   make(map[string]file),
		entries: make(map[ArtifactKey]*list.Element),
		lru:     list.New(),
		flights: make(map[ArtifactKey]*flight),
		lenders: make(map[siblingKey][]*flight),
		budget:  budget,
		metrics: m,
	}
}

// register stores content (copied) under name at the next generation.
func (st *store) register(name string, content []byte) {
	f := file{content: append([]byte{}, content...), crc: crcOf(content)}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.bump(name, f, st.files[name].gen+1)
}

// syncGeneration raises a registered name's generation to at least gen; it
// never lowers one.
func (st *store) syncGeneration(name string, gen uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if f, ok := st.files[name]; ok && f.gen < gen {
		st.bump(name, f, gen)
	}
}

// bump makes f name's registration at generation gen and forgets the
// name's finished artifacts of generations under it. A flight of one runs
// on for its readers; finish refuses it admission.
func (st *store) bump(name string, f file, gen uint64) {
	f.name, f.gen = name, gen
	st.files[name] = f
	for k, el := range st.entries {
		if k.Name == name && k.Gen < gen {
			st.remove(el)
		}
	}
}

// file returns name's current registration.
func (st *store) file(name string) (file, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	f, ok := st.files[name]
	return f, ok
}

// name returns the key b is registered under, or b as a new string when
// it names no registered file (or st is nil): a request for a registered
// file allocates no name.
func (st *store) name(b []byte) string {
	if st != nil {
		st.mu.Lock()
		f, ok := st.files[string(b)]
		st.mu.Unlock()
		if ok {
			return f.name
		}
	}
	return string(b)
}

// names lists the registered names, sorted.
func (st *store) names() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.files))
	for n := range st.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// get returns key's finished artifact and refreshes its recency.
func (st *store) get(key ArtifactKey) ([]selective.Block, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.touch(key)
}

// touch is get with mu held.
func (st *store) touch(key ArtifactKey) ([]selective.Block, bool) {
	el, ok := st.entries[key]
	if !ok {
		return nil, false
	}
	st.lru.MoveToFront(el)
	return el.Value.(*entry).blocks, true
}

// open answers a request for key in one step: the finished artifact (a
// hit: the view has no flight), the flight already building it (a join),
// or a new flight of n blocks that this caller leads and so owes a build
// and a finish. Once the store is drained it starts no flight.
func (st *store) open(key ArtifactKey, n int) (a artifact, leader bool, err error) {
	st.mu.Lock()
	if blocks, ok := st.touch(key); ok {
		st.mu.Unlock()
		return artifact{blocks: blocks}, false, nil
	}
	f, ok := st.flights[key]
	if !ok {
		if st.closed {
			st.mu.Unlock()
			return artifact{}, false, ErrClosing
		}
		f = &flight{blocks: make([]selective.Block, n)}
		f.grown.L = &f.mu
		st.flights[key] = f
		// Under mu, so no Add can race drain's Wait.
		st.wg.Add(1)
		leader = true
	}
	st.mu.Unlock()
	for !leader && st.poll != nil && !f.done() {
		st.poll.Sleep(flightPollInterval)
	}
	return artifact{blocks: f.blocks, f: f}, leader, nil
}

// finish ends key's flight and wakes its readers. A complete one (err nil,
// every block filled in) that is to be kept — a local build always is, a
// peer's copy when admit asked for it meanwhile — becomes the key's finished
// artifact in the same step that forgets the flight, and before its last
// block is published: whoever has been served a whole artifact can find it
// cached, and a build that a Register overtook has been refused before
// anyone could think it current. A failure is forgotten, to be retried by
// the next request rather than remembered. A local build lends its codec
// outputs on for as long as it stays cached.
func (st *store) finish(key ArtifactKey, f *flight, local bool, err error) {
	st.mu.Lock()
	delete(st.flights, key)
	kept := false
	if err == nil && local {
		kept = st.insert(key, f.blocks, f)
	} else if err == nil && f.admitted {
		st.insert(key, f.blocks, nil)
	}
	if local && !kept {
		st.unlend(key, f)
	}
	st.mu.Unlock()
	f.mu.Lock()
	if err == nil {
		f.ready = len(f.blocks)
	}
	f.finished, f.err = true, err
	f.mu.Unlock()
	f.grown.Broadcast()
	st.wg.Done()
}

// admit makes blocks, obtained elsewhere (a peer's copy, a replication
// push), key's finished artifact. While the key is in the air its flight is
// what will hold those blocks — the peer consult admits a hot key from
// inside the flight it leads — so the admission is left for finish to make:
// a key is never both finished and in the air.
func (st *store) admit(key ArtifactKey, blocks []selective.Block) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if f, ok := st.flights[key]; ok {
		f.admitted = true
		return
	}
	st.insert(key, blocks, nil)
}

// lend offers what the codec makes of the blocks of key's local build, as
// it makes them, to the builds of its siblings.
func (st *store) lend(key ArtifactKey, f *flight) {
	st.mu.Lock()
	defer st.mu.Unlock()
	f.runs = make([]codecRun, len(f.blocks))
	sk := siblingOf(key)
	st.lenders[sk] = append(st.lenders[sk], f)
}

// unlend withdraws f from key's siblings.
func (st *store) unlend(key ArtifactKey, f *flight) {
	sk := siblingOf(key)
	fs := slices.DeleteFunc(st.lenders[sk], func(o *flight) bool { return o == f })
	if len(fs) == 0 {
		delete(st.lenders, sk)
	} else {
		st.lenders[sk] = fs
	}
}

// take is how self, a local build of key, gets what the codec makes of
// block i without the codec running on it twice in the file generation.
// It returns the output a local sibling recorded (taken: the decider may
// have sent that sibling's block raw), or waits for a sibling whose codec
// is running on the block now and takes what it made, or else claims the
// block for self, whose caller then owes the codec run and flight.ran. A
// sibling's failed run releases its claim, and take looks again. Only a
// caller that holds a worker slot and calls the codec next may take, and a
// codec never blocks, so every wait is on a codec that is running: never
// on a build queued for a slot or held before its first block.
func (st *store) take(key ArtifactKey, self *flight, i int) (out []byte, taken bool) {
	sk := siblingOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		var r codecRun
		var busy *flight
		for _, f := range st.lenders[sk] {
			f.mu.Lock()
			if f.runs[i].made {
				r = f.runs[i]
			} else if f.runs[i].running {
				busy = f
			}
			f.mu.Unlock()
			if r.made {
				break
			}
		}
		if !r.made && busy != nil {
			// Wait on busy itself: it may finish and stop lending meanwhile.
			busy.mu.Lock()
			st.mu.Unlock()
			for busy.runs[i].running {
				busy.grown.Wait()
			}
			r = busy.runs[i]
			busy.mu.Unlock()
			st.mu.Lock()
			if !r.made {
				continue // its codec failed: look again
			}
		}
		r.running = !r.made // a claim
		self.mu.Lock()
		self.runs[i] = r
		self.mu.Unlock()
		return r.out, r.made
	}
}

// insert caches blocks, built by lender (nil: obtained elsewhere), as key's
// artifact, charged with the codec outputs the lender holds beyond them,
// replacing any it had and evicting least-recently-used entries until the
// budget holds it. It refuses a generation its file has left behind —
// cached, nothing would ever drop it — and an artifact larger than the
// whole budget, rather than churning the cache empty for it. It reports
// whether it cached blocks.
func (st *store) insert(key ArtifactKey, blocks []selective.Block, lender *flight) bool {
	if st.budget <= 0 || key.Gen < st.files[key.Name].gen {
		return false
	}
	size := entrySize(key, blocks) + lender.spare()
	if size > st.budget {
		st.metrics.cacheRejects.Add(1)
		return false
	}
	if old, ok := st.entries[key]; ok {
		st.remove(old)
	}
	for st.bytes+size > st.budget {
		st.remove(st.lru.Back())
		st.metrics.evictions.Add(1)
	}
	st.entries[key] = st.lru.PushFront(&entry{key: key, blocks: blocks, bytes: size, lender: lender})
	st.charge(size)
	return true
}

// entrySize is the budget charge for caching blocks.
func entrySize(key ArtifactKey, blocks []selective.Block) int64 {
	n := int64(entryOverhead + len(key.Name) + len(key.FP))
	for _, b := range blocks {
		n += int64(len(b.Payload)) + 32
	}
	return n
}

func (st *store) remove(el *list.Element) {
	e := st.lru.Remove(el).(*entry)
	delete(st.entries, e.key)
	if e.lender != nil {
		st.unlend(e.key, e.lender)
	}
	st.charge(-e.bytes)
}

// charge moves the bytes held by d and brings the occupancy gauges along
// with the entries and bytes they report, so that a raw registry snapshot
// (the admin /metrics page) is as current as a Stats call.
func (st *store) charge(d int64) {
	st.bytes += d
	st.metrics.cacheBytes.Set(st.bytes)
	st.metrics.cacheEntries.Set(int64(len(st.entries)))
}

// drain refuses new flights and waits for the ones in the air to finish.
func (st *store) drain() {
	st.mu.Lock()
	st.closed = true
	st.mu.Unlock()
	st.wg.Wait()
}
