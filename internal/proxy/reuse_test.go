package proxy

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/decider"
	"repro/internal/obs"
	"repro/internal/selective"
	"repro/internal/workload"
)

// Tests for sibling reuse: a build takes block i from a local artifact of
// the same file generation and scheme under another policy when that one
// already holds it compressed, and runs the codec on the rest.

// policy is a decision policy as the store keys it.
type policy struct {
	name string
	d    selective.Decider
	fp   string
}

// reusePolicies are the three kinds of artifact a file has per scheme: the
// always-compress one of the precompressed and on-demand modes, Equation
// 6's selective one, and a dynamic decider's per-request derivation.
func reusePolicies() []policy {
	dyn, dynFP := decider.New(decider.Config{}).ForRequest(uint8(decider.ClassStrict), 0)
	return []policy{
		{"always", selective.AlwaysCompress{}, fpAlways},
		{"eq6", selective.PaperDecider{}, deciderFingerprint(selective.PaperDecider{})},
		{"dynamic", dyn, dynFP},
	}
}

// sameBlocks fails t unless got is want block for block.
func sameBlocks(t *testing.T, what string, got, want []selective.Block) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d blocks, from scratch %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Compressed != w.Compressed || g.Probed != w.Probed || g.RawLen != w.RawLen || !bytes.Equal(g.Payload, w.Payload) {
			t.Fatalf("%s: block %d is {compressed %v probed %v raw %d payload %d B}, from scratch {%v %v %d %d B}",
				what, i, g.Compressed, g.Probed, g.RawLen, len(g.Payload), w.Compressed, w.Probed, w.RawLen, len(w.Payload))
		}
	}
}

// fromScratch is content's artifact as selective.Encode makes it, with a
// codec of its own.
func fromScratch(t *testing.T, content []byte, sc codec.Scheme, d selective.Decider) []selective.Block {
	t.Helper()
	enc, err := selective.Encode(content, codec.MustNew(sc, 0), d)
	if err != nil {
		t.Fatal(err)
	}
	return enc.Blocks
}

// benchScratch holds the bench files and every one's from-scratch artifact
// under each scheme and policy, made once per test binary however many
// times -count runs the oracle: an encoding is a pure function of its inputs.
var benchScratch = sync.OnceValue(func() (out struct {
	files  []workload.BenchFile
	blocks map[benchArtifact][]selective.Block
}) {
	gz := codec.MustNew(codec.Gzip, 6)
	out.files = workload.BenchFiles(func(b []byte) float64 {
		comp, err := gz.Compress(b)
		if err != nil {
			panic(err)
		}
		return codec.Factor(len(b), len(comp))
	})
	out.blocks = map[benchArtifact][]selective.Block{}
	for fi, f := range out.files {
		for _, sc := range reuseSchemes {
			for pi, p := range reusePolicies() {
				enc, err := selective.Encode(f.Data, codec.MustNew(sc, 0), p.d)
				if err != nil {
					panic(err)
				}
				out.blocks[benchArtifact{fi, sc, pi}] = enc.Blocks
			}
		}
	}
	return out
})

// benchArtifact is one bench file under one scheme and policy.
type benchArtifact struct {
	file   int
	scheme codec.Scheme
	pol    int
}

var reuseSchemes = []codec.Scheme{codec.Gzip, codec.Compress, codec.Bzip2}

// buildArtifact opens key's artifact on srv for span (may be nil) and waits
// for all of it. It may run on a goroutine of its own, so a failure is an
// Error, and nil.
func buildArtifact(t *testing.T, srv *Server, key ArtifactKey, content []byte, d selective.Decider, span *obs.Span) []selective.Block {
	t.Helper()
	a, err := srv.openArtifact(key, content, d, span, false)
	if err == nil {
		var blocks []selective.Block
		if blocks, err = a.whole(); err == nil {
			return blocks
		}
	}
	t.Errorf("building %+v: %v", key, err)
	return nil
}

// reuseOrder is an order in which the three policies' artifacts of one
// file and scheme are built.
type reuseOrder struct {
	name       string
	seq        []int // the policies in build order
	concurrent bool  // opened all at once, not one after another
}

var reuseOrders = []reuseOrder{
	{"always-first", []int{0, 1, 2}, false},
	{"selective-first", []int{1, 2, 0}, false},
	{"concurrent", []int{0, 1, 2}, true},
}

// buildEveryPolicy builds bench file fi under sc and every policy on srv,
// in order o, and fails t unless each artifact is, block for block, what
// selective.Encode makes of the file from scratch with a codec of its own.
func buildEveryPolicy(t *testing.T, srv *Server, fi int, sc codec.Scheme, o reuseOrder) {
	bench, pols := benchScratch(), reusePolicies()
	f := bench.files[fi]
	got := make([][]selective.Block, len(pols))
	var wg sync.WaitGroup
	for _, pi := range o.seq {
		key := ArtifactKey{Name: f.Name, Gen: 1, Scheme: sc, FP: pols[pi].fp}
		run := func() { got[pi] = buildArtifact(t, srv, key, f.Data, pols[pi].d, nil) }
		if !o.concurrent {
			run()
			continue
		}
		wg.Add(1)
		go func() { defer wg.Done(); run() }()
	}
	wg.Wait()
	for pi, p := range pols {
		sameBlocks(t, fmt.Sprintf("%s %s %s", f.Name, sc, p.name), got[pi], bench.blocks[benchArtifact{fi, sc, pi}])
	}
}

// TestSiblingReuseByteIdentical is the oracle for reuse: every bench file
// under gzip, compress and bzip2, built under all three policies in three
// orders — always first, selective first, all at once — must be, block for
// block, what selective.Encode makes of it from scratch with a codec of its
// own. Every order must have taken blocks from siblings, or the comparison
// proved nothing.
func TestSiblingReuseByteIdentical(t *testing.T) {
	bench := benchScratch()
	files, pols := bench.files, reusePolicies()
	for _, o := range reuseOrders {
		t.Run(o.name, func(t *testing.T) {
			srv := NewServerWith(nil, Config{Workers: 3})
			defer srv.Close()
			countCodecRuns(t, srv, nil)
			for _, f := range files {
				srv.Register(f.Name, f.Data)
			}
			for fi := range files {
				for _, sc := range reuseSchemes {
					buildEveryPolicy(t, srv, fi, sc, o)
				}
			}
			reused := srv.metrics.reused.Value()
			t.Logf("%d blocks taken from siblings", reused)
			if reused == 0 {
				t.Error("no build took a block from a sibling")
			}
			if got, want := srv.Stats().Compressions, int64(len(files)*len(reuseSchemes)*len(pols)); got != want {
				t.Errorf("%d builds, want one per artifact: %d", got, want)
			}
		})
	}
}

// codecRuns counts a server's codec runs by scheme and block, a block
// being where it starts in the content its build was handed: its identity,
// not its bytes.
type codecRuns struct {
	mu sync.Mutex
	n  map[codecRunKey]int
}

type codecRunKey struct {
	scheme codec.Scheme
	at     *byte
}

// countCodecRuns hands srv the real codecs and counts every run that before
// (nil: none) lets through to the codec; before runs first and may hold
// the run or fail it. It fails t if a build asks for a level other than 0:
// a sibling's codec output is the bytes the taker's own codec would make
// only while every build runs the same level, and ArtifactKey carries none.
func countCodecRuns(t *testing.T, srv *Server, before func(raw []byte) error) *codecRuns {
	runs := &codecRuns{n: map[codecRunKey]int{}}
	srv.newCodec = func(s codec.Scheme, level int) (codec.Codec, error) {
		if level != 0 {
			t.Errorf("a build of %s asked for codec level %d; siblings share outputs only while every build runs level 0", s, level)
		}
		c, err := codec.New(s, level)
		return hookCodec{c, func(raw []byte) error {
			if before != nil {
				if err := before(raw); err != nil {
					return err
				}
			}
			runs.mu.Lock()
			runs.n[codecRunKey{s, &raw[0]}]++
			runs.mu.Unlock()
			return nil
		}}, err
	}
	return runs
}

// of returns how often the codec ran on block i of content under sc.
func (r *codecRuns) of(sc codec.Scheme, content []byte, i int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n[codecRunKey{sc, &content[i*selective.BlockSize]}]
}

// lyingBlocks is content chunked into blocks that claim to be compressed
// and are not: what no build may take from a peer.
func lyingBlocks(content []byte) []selective.Block {
	blocks := chunkRaw(content)
	for i := range blocks {
		blocks[i].Compressed, blocks[i].Payload = true, []byte("not what gzip makes of it")
	}
	return blocks
}

// TestCodecRunsOncePerBlock is the oracle for sharing codec output: every
// bench file under gzip, compress and bzip2, built under all three policies
// always first, selective first and all at once, on one worker and on
// three, beside a peer's lying copy of it under a policy of its own, runs
// the codec exactly once per block — a block one policy's decider sent raw
// included — and every artifact is still, block for block, what
// selective.Encode makes of the file from scratch.
func TestCodecRunsOncePerBlock(t *testing.T) {
	files := benchScratch().files
	for _, workers := range []int{1, 3} {
		for _, o := range reuseOrders {
			t.Run(fmt.Sprintf("%s/workers%d", o.name, workers), func(t *testing.T) {
				srv := NewServerWith(nil, Config{Workers: workers})
				defer srv.Close()
				runs := countCodecRuns(t, srv, nil)
				for _, f := range files {
					srv.Register(f.Name, f.Data)
				}
				for fi, f := range files {
					for _, sc := range reuseSchemes {
						srv.AdmitArtifact(ArtifactKey{Name: f.Name, Gen: 1, Scheme: sc, FP: "peer"}, lyingBlocks(f.Data))
						buildEveryPolicy(t, srv, fi, sc, o)
						for i := range selective.NumBlocks(len(f.Data)) {
							if n := runs.of(sc, f.Data, i); n != 1 {
								t.Errorf("%s %s block %d: the codec ran %d times, want once", f.Name, sc, i, n)
							}
						}
					}
				}
			})
		}
	}
}

// TestSiblingHeldBeforeItsCodecIsNotWaitedFor holds an always-compress
// build in onCompress, a worker slot held and no block begun: it has
// claimed nothing, so the selective build of the same file and scheme runs
// the codec on every block itself without waiting for it, and says so on
// its span; let go, the held build then takes every block from the
// selective one and runs no codec. Three siblings opened at once on a
// one-worker server, each queued for the slot behind another, all finish.
func TestSiblingHeldBeforeItsCodecIsNotWaitedFor(t *testing.T) {
	content := taggedContent(workload.ClassHTML, 4, 17)
	srv := NewServerWith(nil, Config{Workers: 3})
	defer srv.Close()
	srv.Register("f", content)
	runs := countCodecRuns(t, srv, nil)
	held, release := make(chan struct{}), make(chan struct{})
	free := sync.OnceFunc(func() { close(release) })
	defer free() // before Close, which waits for the held build
	srv.onCompress = func(k ArtifactKey) {
		if k.FP == fpAlways {
			close(held)
			<-release
		}
	}
	pols := reusePolicies()
	a, err := srv.openArtifact(ArtifactKey{Name: "f", Gen: 1, Scheme: codec.Gzip, FP: pols[0].fp}, content, pols[0].d, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	<-held

	span := srv.tracer.Start("serve")
	done := make(chan []selective.Block, 1)
	go func() {
		done <- buildArtifact(t, srv, ArtifactKey{Name: "f", Gen: 1, Scheme: codec.Gzip, FP: pols[1].fp}, content, pols[1].d, span)
	}()
	select {
	case got := <-done:
		sameBlocks(t, "selective beside a held sibling", got, fromScratch(t, content, codec.Gzip, pols[1].d))
	case <-time.After(10 * time.Second):
		t.Fatal("the selective build waited for a sibling held before its codec")
	}
	span.Finish()
	if attrs := srv.tracer.Snapshot()[0].Attrs; attrs["blocks_reused"] != "0" || attrs["blocks_probed_raw"] != "0" {
		t.Errorf("the selective build's span says blocks_reused=%q blocks_probed_raw=%q, want 0 and 0", attrs["blocks_reused"], attrs["blocks_probed_raw"])
	}
	free()
	got, err := a.whole()
	if err != nil {
		t.Fatal(err)
	}
	sameBlocks(t, "the held always build", got, fromScratch(t, content, codec.Gzip, pols[0].d))
	for i := range 4 {
		if n := runs.of(codec.Gzip, content, i); n != 1 {
			t.Errorf("block %d: the codec ran %d times, want once", i, n)
		}
	}
	if n := srv.metrics.reused.Value(); n != 4 {
		t.Errorf("%d blocks taken from siblings, want the held build's 4", n)
	}

	one := NewServerWith(nil, Config{Workers: 1})
	defer one.Close()
	one.Register("f", content)
	var wg sync.WaitGroup
	for _, p := range pols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buildArtifact(t, one, ArtifactKey{Name: "f", Gen: 1, Scheme: codec.Gzip, FP: p.fp}, content, p.d, nil)
		}()
	}
	wg.Wait()
}

// holdAt returns a codec hook that holds the first run on block i of
// content until release is closed, having closed held, and then fails it
// with err (nil: lets it run).
func holdAt(content []byte, i int, held, release chan struct{}, err error) func(raw []byte) error {
	var holding atomic.Bool
	return func(raw []byte) error {
		if &raw[0] == &content[i*selective.BlockSize] && holding.CompareAndSwap(false, true) {
			close(held)
			<-release
			return err
		}
		return nil
	}
}

// readyAt waits until f has published exactly n blocks.
func readyAt(t *testing.T, f *flight, n int) {
	t.Helper()
	waitFor(t, func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.ready == n
	})
}

// TestSiblingRunningCodecIsWaitedFor holds an always-compress build of a
// three-block file inside its codec at block 2, blocks 0 and 1 made: the
// selective build of the same file and scheme takes those two, then waits
// for block 2 rather than run the codec on it again, and takes it once the
// held codec returns, so the codec runs once per block. A build of the
// next generation, meanwhile, takes nothing from the held one and waits for
// nothing.
func TestSiblingRunningCodecIsWaitedFor(t *testing.T) {
	content := taggedContent(workload.ClassHTML, 3, 17)
	// Each of the two gen-1 builds may hold two slots, its own and a
	// block's: the next generation's build needs one more.
	srv := NewServerWith(nil, Config{Workers: 5})
	defer srv.Close()
	srv.Register("f", content)
	held, release := make(chan struct{}), make(chan struct{})
	free := sync.OnceFunc(func() { close(release) })
	defer free() // before Close, which waits for the held build
	runs := countCodecRuns(t, srv, holdAt(content, 2, held, release, nil))
	pols := reusePolicies()
	a, err := srv.openArtifact(ArtifactKey{Name: "f", Gen: 1, Scheme: codec.Gzip, FP: pols[0].fp}, content, pols[0].d, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	<-held
	readyAt(t, a.f, 2)
	span := srv.tracer.Start("serve")
	s, err := srv.openArtifact(ArtifactKey{Name: "f", Gen: 1, Scheme: codec.Gzip, FP: pols[1].fp}, content, pols[1].d, span, false)
	if err != nil {
		t.Fatal(err)
	}
	readyAt(t, s.f, 2)
	time.Sleep(20 * time.Millisecond) // room for a wrongly eager build to run block 2
	if n := runs.of(codec.Gzip, content, 2); n != 0 || s.f.done() {
		t.Fatalf("the selective build did not wait for block 2: the codec ran on it %d times beside the held run, selective finished %v", n, s.f.done())
	}

	next := taggedContent(workload.ClassHTML, 3, 18)
	srv.Register("f", next)
	nextSpan := srv.tracer.Start("serve")
	done := make(chan []selective.Block, 1)
	go func() {
		done <- buildArtifact(t, srv, ArtifactKey{Name: "f", Gen: 2, Scheme: codec.Gzip, FP: pols[1].fp}, next, pols[1].d, nextSpan)
	}()
	select {
	case got := <-done:
		sameBlocks(t, "selective of the next generation", got, fromScratch(t, next, codec.Gzip, pols[1].d))
	case <-time.After(10 * time.Second):
		t.Fatal("the next generation's build waited for the held one")
	}
	nextSpan.Finish()
	if r := srv.tracer.Snapshot()[0].Attrs["blocks_reused"]; r != "0" {
		t.Errorf("the next generation's build says blocks_reused=%q, want 0", r)
	}

	free()
	for _, b := range []struct {
		what string
		a    artifact
		pol  policy
	}{{"the held always build", a, pols[0]}, {"selective beside it", s, pols[1]}} {
		got, err := b.a.whole()
		if err != nil {
			t.Fatal(err)
		}
		sameBlocks(t, b.what, got, fromScratch(t, content, codec.Gzip, b.pol.d))
	}
	span.Finish()
	for i := range 3 {
		if n := runs.of(codec.Gzip, content, i); n != 1 {
			t.Errorf("block %d: the codec ran %d times, want once", i, n)
		}
	}
	if attrs := srv.tracer.Snapshot()[1].Attrs; attrs["blocks_reused"] != "3" || srv.metrics.reused.Value() != 3 {
		t.Errorf("the selective build's span says blocks_reused=%q, %d taken in all; want 3 and 3", attrs["blocks_reused"], srv.metrics.reused.Value())
	}
}

// TestSiblingCodecFailureHandsTheBlockOver fails the always-compress
// build's codec at block 2 of a three-block file while the selective build of the same file and
// scheme waits for that block: the claim is released, the waiter runs the
// codec on block 2 itself and finishes whole and byte-identical; the failed
// build has published nothing from block 2 on, fails its readers and is not
// cached; and no goroutine outlives Close.
func TestSiblingCodecFailureHandsTheBlockOver(t *testing.T) {
	before := runtime.NumGoroutine()
	content := taggedContent(workload.ClassHTML, 3, 17)
	srv := NewServerWith(nil, Config{Workers: 3})
	srv.Register("f", content)
	held, release := make(chan struct{}), make(chan struct{})
	free := sync.OnceFunc(func() { close(release) })
	defer free()
	runs := countCodecRuns(t, srv, holdAt(content, 2, held, release, errInjectedBuild))
	pols := reusePolicies()
	always := ArtifactKey{Name: "f", Gen: 1, Scheme: codec.Gzip, FP: pols[0].fp}
	a, err := srv.openArtifact(always, content, pols[0].d, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	<-held
	readyAt(t, a.f, 2)
	s, err := srv.openArtifact(ArtifactKey{Name: "f", Gen: 1, Scheme: codec.Gzip, FP: pols[1].fp}, content, pols[1].d, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	readyAt(t, s.f, 2)
	time.Sleep(20 * time.Millisecond)
	if n := runs.of(codec.Gzip, content, 2); n != 0 {
		t.Fatalf("the codec ran on block 2 %d times while its claimer held it", n)
	}
	free()
	got, err := s.whole()
	if err != nil {
		t.Fatalf("the waiting build failed with its sibling: %v", err)
	}
	sameBlocks(t, "selective after its sibling failed", got, fromScratch(t, content, codec.Gzip, pols[1].d))
	if n := runs.of(codec.Gzip, content, 2); n != 1 {
		t.Errorf("block 2: the codec ran to the end %d times, want once, by the waiter", n)
	}
	if _, err := a.whole(); !errors.Is(err, errInjectedBuild) {
		t.Errorf("the failed build's reader got %v, want the injected failure", err)
	}
	readyAt(t, a.f, 2)
	if _, ok := srv.CachedArtifact(always); ok {
		t.Error("the failed build is cached")
	}
	_ = srv.Close()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

// TestPeerArtifactsLendNothing caches two always-compress artifacts whose
// compressed payloads lie — one a peer fetch returned and the hot-key
// admission kept, one a replication push through AdmitArtifact — and builds
// the selective artifact of each file here: neither lie may be taken, and
// the builds are byte-identical to a fresh server's.
func TestPeerArtifactsLendNothing(t *testing.T) {
	content := workload.Generate(workload.ClassHTML, 3*selective.BlockSize+5000, 23)
	pols := reusePolicies()
	key := func(name string, p policy) ArtifactKey {
		return ArtifactKey{Name: name, Gen: 1, Scheme: codec.Gzip, FP: p.fp}
	}

	srv := NewServerWith(nil, Config{})
	defer srv.Close()
	srv.Register("fetched", content)
	srv.Register("pushed", content)
	srv.SetPeerFetch(func(k ArtifactKey) ([]selective.Block, error) {
		if k != key("fetched", pols[0]) {
			return nil, ErrOwnedLocally
		}
		blocks := lyingBlocks(content)
		srv.AdmitArtifact(k, blocks) // what the cluster does for a hot key
		return blocks, nil
	})
	a, err := srv.openArtifact(key("fetched", pols[0]), content, pols[0].d, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.whole(); err != nil {
		t.Fatal(err)
	}
	srv.AdmitArtifact(key("pushed", pols[0]), lyingBlocks(content))
	for _, name := range []string{"fetched", "pushed"} {
		if cached, ok := srv.CachedArtifact(key(name, pols[0])); !ok || !bytes.Equal(cached[0].Payload, lyingBlocks(content)[0].Payload) {
			t.Fatalf("%s: the lying artifact is not what is cached", name)
		}
	}

	fresh := NewServerWith(nil, Config{})
	defer fresh.Close()
	fresh.Register("f", content)
	want := buildArtifact(t, fresh, key("f", pols[1]), content, pols[1].d, nil)
	for _, name := range []string{"fetched", "pushed"} {
		a, err := srv.openArtifact(key(name, pols[1]), content, pols[1].d, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.whole()
		if err != nil {
			t.Fatal(err)
		}
		sameBlocks(t, name+" beside a peer's lie", got, want)
	}
	if n := srv.metrics.reused.Value(); n != 0 {
		t.Errorf("%d blocks taken from artifacts built elsewhere", n)
	}
	if st := srv.Stats(); st.PeerFetches != 1 || st.Compressions != 2 {
		t.Errorf("%d peer fetches and %d builds, want 1 and the 2 selective ones", st.PeerFetches, st.Compressions)
	}
}

// TestCompressRateCountsOnlyEncodedBytes: the per-scheme input counter and
// the throughput histogram see only the bytes a codec ran on, over the time
// spent inside the codec. Equation 6's build of a file with a random block
// runs the codec on the other three; the always-compress build then takes
// those from it and runs the codec on the random block alone; a third
// policy's build takes everything it needs and observes nothing. A build
// that waited on a sibling's codec, with a codec that costs the same on
// every block, observes no lower a rate than that cost allows.
func TestCompressRateCountsOnlyEncodedBytes(t *testing.T) {
	content := workload.Generate(workload.ClassHTML, 4*selective.BlockSize, 29)
	rand.New(rand.NewSource(29)).Read(content[selective.BlockSize : 2*selective.BlockSize])
	srv := NewServerWith(nil, Config{})
	defer srv.Close()
	srv.Register("f", content)
	pols := reusePolicies()
	samples := func() (n int64) {
		for _, c := range srv.metrics.compressRate.Snapshot().Counts {
			n += c
		}
		return n
	}
	for i, want := range []struct {
		pol            int
		input, samples int64
	}{
		{1, 3 * selective.BlockSize, 1}, // the random block is probed raw
		{0, 4 * selective.BlockSize, 2}, // three blocks taken, the random one encoded
		{2, 4 * selective.BlockSize, 2}, // every block it compresses is taken
	} {
		p := pols[want.pol]
		buildArtifact(t, srv, ArtifactKey{Name: "f", Gen: 1, Scheme: codec.Gzip, FP: p.fp}, content, p.d, nil)
		if in, n := srv.Stats().CompressInputBytes["gzip"], samples(); in != want.input || n != want.samples {
			t.Errorf("after build %d (%s): %d gzip input bytes in %d rate samples, want %d in %d", i, p.name, in, n, want.input, want.samples)
		}
	}
	// Equation 6's build holds its codec at block 0 and then fails there,
	// observing nothing; the always-compress build waits for that block
	// meanwhile, then runs the codec on it and on the random block itself.
	const cost, hold = 20 * time.Millisecond, 300 * time.Millisecond
	waiter := NewServerWith(nil, Config{Workers: 4})
	defer waiter.Close()
	waiter.Register("f", content)
	held, release := make(chan struct{}), make(chan struct{})
	holdFirst := holdAt(content, 0, held, release, errInjectedBuild)
	waiter.newCodec = func(s codec.Scheme, level int) (codec.Codec, error) {
		return hookCodec{stubCodec{s}, func(raw []byte) error {
			if err := holdFirst(raw); err != nil {
				return err
			}
			time.Sleep(cost)
			return nil
		}}, nil
	}
	a, err := waiter.openArtifact(ArtifactKey{Name: "f", Gen: 1, Scheme: codec.Gzip, FP: pols[1].fp}, content, pols[1].d, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	<-held
	before := waiter.metrics.compressRate.Snapshot()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buildArtifact(t, waiter, ArtifactKey{Name: "f", Gen: 1, Scheme: codec.Gzip, FP: pols[0].fp}, content, pols[0].d, nil)
	}()
	time.Sleep(hold)
	close(release)
	<-done
	if _, err := a.whole(); !errors.Is(err, errInjectedBuild) {
		t.Fatalf("the held build: %v, want the injected failure", err)
	}
	after := waiter.metrics.compressRate.Snapshot()
	// The codec's time is at least cost a block; allow it up to three.
	if n, rate, floor := after.Count-before.Count, after.Sum-before.Sum, float64(selective.BlockSize)/(3*cost).Seconds(); n != 1 || rate < floor {
		t.Errorf("the build that waited observed %d rate samples summing to %.0f B/s, want one of at least %.0f", n, rate, floor)
	}
}
