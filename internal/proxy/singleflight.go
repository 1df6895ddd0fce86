package proxy

import (
	"sync"

	"repro/internal/selective"
)

// flight is one artifact in the air: a block sequence that is appended to
// while it is served. Its builder fills blocks in order and publishes each
// as it finishes; every request for the key — the one that started the
// build included — reads behind it and is handed block i the moment it
// exists, not when the whole file is done.
type flight struct {
	mu sync.Mutex
	// grown is signalled on every publish, on every codec run's end (ran)
	// and at store.finish.
	grown sync.Cond
	// blocks has the artifact's final length from the start (the raw
	// chunking fixes it before anything is compressed), so a reader's view
	// of the slice never moves; only blocks[:ready] may be read.
	blocks   []selective.Block
	ready    int
	finished bool
	err      error
	// admitted, under the store's lock and not mu: admit was asked to cache
	// this key while the flight was in the air, so finish is to.
	admitted bool
	// runs, for a local build (from store.lend on), is what its codec made
	// or is making of each block: what its siblings take or wait for while
	// it lends (store.take).
	runs []codecRun
}

// codecRun is one block's codec output as a build holds it for its
// siblings, whether the decider then sent the block compressed or raw.
type codecRun struct {
	out []byte
	// made: out is the codec's output (its own or a sibling's); running:
	// this build's codec is at work on the block, and holds its claim.
	made, running bool
}

// ran records what the codec made of block i, or — err set — releases the
// claim for a sibling's build to run the codec itself, and wakes whoever
// waits for it.
func (f *flight) ran(i int, out []byte, err error) {
	f.mu.Lock()
	f.runs[i] = codecRun{out: out, made: err == nil}
	f.mu.Unlock()
	f.grown.Broadcast()
}

// spare is the bytes of the codec outputs f holds beyond its blocks: the
// ones the decider sent raw.
func (f *flight) spare() (n int64) {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, r := range f.runs {
		if !f.blocks[i].Compressed {
			n += int64(len(r.out))
		}
	}
	return n
}

// publish makes blocks[:n] readable. Only the builder calls it, after
// filling them in.
func (f *flight) publish(n int) {
	f.mu.Lock()
	f.ready = n
	f.mu.Unlock()
	f.grown.Broadcast()
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
