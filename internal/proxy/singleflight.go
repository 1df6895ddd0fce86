package proxy

import (
	"sync"
	"time"

	"repro/internal/selective"
)

// flight is one artifact in the air: a block sequence that is appended to
// while it is served. Its builder fills blocks in order and publishes each
// as it finishes; every request for the key — the one that started the
// build included — reads behind it and is handed block i the moment it
// exists, not when the whole file is done.
type flight struct {
	mu sync.Mutex
	// grown is signalled on every publish and at finish.
	grown sync.Cond
	// blocks has the artifact's final length from the start (the raw
	// chunking fixes it before anything is compressed), so a reader's view
	// of the slice never moves; only blocks[:ready] may be read.
	blocks   []selective.Block
	ready    int
	finished bool
	err      error
}

// publish makes blocks[:n] readable. Only the builder calls it, after
// filling them in.
func (f *flight) publish(n int) {
	f.mu.Lock()
	f.ready = n
	f.mu.Unlock()
	f.grown.Broadcast()
}

// fill publishes a whole artifact obtained elsewhere (the cache, a peer).
func (f *flight) fill(blocks []selective.Block) {
	copy(f.blocks, blocks)
	f.publish(len(f.blocks))
}

// await blocks until block i is readable or, for an i the artifact will
// never have, until the build has finished. It returns the build's error
// if the build failed first.
func (f *flight) await(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i >= f.ready && !f.finished {
		f.grown.Wait()
	}
	if i >= f.ready {
		return f.err
	}
	return nil
}

// done reports whether the build has finished, either way.
func (f *flight) done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.finished
}

// artifact is one request's view of a block stream: a finished one (a
// cache hit, a raw chunking, a peer's copy) or one a flight is still
// appending to. Either way len(blocks) is the stream's final length.
type artifact struct {
	blocks []selective.Block
	f      *flight // nil when every block is already there
}

// whole waits for the build to finish and returns every block.
func (a artifact) whole() ([]selective.Block, error) {
	if a.f != nil {
		if err := a.f.await(len(a.blocks)); err != nil {
			return nil, err
		}
	}
	return a.blocks, nil
}

// flightGroup gives singleflight semantics to artifact construction: N
// simultaneous requests for the same uncached cacheKey share one flight,
// so its build runs exactly once.
type flightGroup struct {
	mu     sync.Mutex
	m      map[cacheKey]*flight
	closed bool
	// wg counts unfinished flights: what drain waits for.
	wg sync.WaitGroup
	// poll, when set (SetPeerFetch, on a virtual clock), is the clock a
	// follower sleeps on, flightPollInterval at a time, until its flight has
	// finished; nil reads behind the builder.
	poll WallClock
}

const flightPollInterval = 250 * time.Microsecond

// join returns the flight for key, starting one of n blocks when none is
// in the air. leader reports that this caller started it and so owes it a
// build and a finish. The flight is nil once the group is drained.
func (g *flightGroup) join(key cacheKey, n int) (f *flight, leader bool) {
	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		for g.poll != nil && !f.done() {
			g.poll.Sleep(flightPollInterval)
		}
		return f, false
	}
	if g.closed {
		g.mu.Unlock()
		return nil, false
	}
	if g.m == nil {
		g.m = make(map[cacheKey]*flight)
	}
	f = &flight{blocks: make([]selective.Block, n)}
	f.grown.L = &f.mu
	g.m[key] = f
	// Under mu, so no Add can race drain's Wait.
	g.wg.Add(1)
	g.mu.Unlock()
	return f, true
}

// finish ends key's flight, complete (err nil, every block published) or
// failed, and wakes its readers. The key is forgotten either way: a
// finished artifact lives on in the cache, not here, and a failure is
// retried by the next request rather than remembered.
func (g *flightGroup) finish(key cacheKey, f *flight, err error) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	f.mu.Lock()
	f.finished, f.err = true, err
	f.mu.Unlock()
	f.grown.Broadcast()
	g.wg.Done()
}

// drain refuses new flights and waits for the ones in the air to finish.
func (g *flightGroup) drain() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.wg.Wait()
}
