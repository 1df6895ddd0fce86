package proxy

import (
	"bytes"
	"fmt"
	"math/rand"
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

// levelZeroOnly hands srv the real codecs and fails t if a build asks for a
// level other than 0: a lent block is the bytes the borrower's own codec
// would make only while every build runs the same level, and ArtifactKey
// carries none.
func levelZeroOnly(t *testing.T, srv *Server) {
	srv.newCodec = func(s codec.Scheme, level int) (codec.Codec, error) {
		if level != 0 {
			t.Errorf("a build of %s asked for codec level %d; sibling reuse needs level 0 throughout", s, level)
		}
		return codec.New(s, level)
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

// TestSiblingReuseByteIdentical is the oracle for reuse: every bench file
// under gzip, compress and bzip2, built under all three policies in three
// orders — always first, selective first, all at once — must be, block for
// block, what selective.Encode makes of it from scratch with a codec of its
// own. Every order must have taken blocks from siblings, or the comparison
// proved nothing.
func TestSiblingReuseByteIdentical(t *testing.T) {
	bench := benchScratch()
	files, pols := bench.files, reusePolicies()
	orders := []struct {
		name       string
		seq        []int // the policies in build order
		concurrent bool  // opened all at once, not one after another
	}{
		{"always-first", []int{0, 1, 2}, false},
		{"selective-first", []int{1, 2, 0}, false},
		{"concurrent", []int{0, 1, 2}, true},
	}
	for _, o := range orders {
		t.Run(o.name, func(t *testing.T) {
			srv := NewServerWith(nil, Config{Workers: 3})
			defer srv.Close()
			levelZeroOnly(t, srv)
			for _, f := range files {
				srv.Register(f.Name, f.Data)
			}
			for fi, f := range files {
				for _, sc := range reuseSchemes {
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

// TestSiblingInFlightLendsWithoutWaiting holds an always-compress build at
// block 2 with blocks 0 and 1 published: the selective build of the same
// file and scheme takes those two from it, compresses the rest itself
// without waiting for the held build, and says so on its span; once the
// file is registered again, the next generation's build takes nothing from
// the held one. Two siblings opened at once on a one-worker server both
// finish, whichever gets the slot first.
func TestSiblingInFlightLendsWithoutWaiting(t *testing.T) {
	content := taggedContent(workload.ClassHTML, 4, 17)
	srv := NewServerWith(nil, Config{Workers: 3})
	defer srv.Close()
	srv.Register("f", content)
	var holding atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	var releasing sync.Once
	free := func() { releasing.Do(func() { close(release) }) }
	defer free() // before Close, which waits for the held build
	srv.newCodec = func(s codec.Scheme, level int) (codec.Codec, error) {
		c, err := codec.New(s, level)
		return hookCodec{c, func(raw []byte) error {
			if raw[0] == 2 && holding.CompareAndSwap(false, true) { // the first build there: the always one
				close(held)
				<-release
			}
			return nil
		}}, err
	}
	pols := reusePolicies()
	always := ArtifactKey{Name: "f", Gen: 1, Scheme: codec.Gzip, FP: pols[0].fp}
	a, err := srv.openArtifact(always, content, pols[0].d, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	<-held
	waitFor(t, func() bool {
		a.f.mu.Lock()
		defer a.f.mu.Unlock()
		return a.f.ready == 2
	})

	span := srv.tracer.Start("serve")
	done := make(chan []selective.Block, 1)
	go func() {
		done <- buildArtifact(t, srv, ArtifactKey{Name: "f", Gen: 1, Scheme: codec.Gzip, FP: pols[1].fp}, content, pols[1].d, span)
	}()
	select {
	case got := <-done:
		sameBlocks(t, "selective beside a held sibling", got, fromScratch(t, content, codec.Gzip, pols[1].d))
	case <-time.After(10 * time.Second):
		t.Fatal("the selective build waited for its held sibling")
	}
	if n := srv.metrics.reused.Value(); n != 2 {
		t.Errorf("%d blocks taken from the held sibling, want its 2 published ones", n)
	}
	// The held build is of a generation a new registration leaves behind:
	// the new generation's build takes nothing from it.
	next := taggedContent(workload.ClassHTML, 4, 18)
	srv.Register("f", next)
	got := buildArtifact(t, srv, ArtifactKey{Name: "f", Gen: 2, Scheme: codec.Gzip, FP: pols[1].fp}, next, pols[1].d, nil)
	sameBlocks(t, "selective of the next generation", got, fromScratch(t, next, codec.Gzip, pols[1].d))
	if n := srv.metrics.reused.Value(); n != 2 {
		t.Errorf("%d blocks taken from siblings once the next generation was built, want still 2", n)
	}
	free()
	got, err = a.whole()
	if err != nil {
		t.Fatal(err)
	}
	sameBlocks(t, "the held always build", got, fromScratch(t, content, codec.Gzip, pols[0].d))
	span.Finish()
	if attrs := srv.tracer.Snapshot()[0].Attrs; attrs["blocks_reused"] != "2" || attrs["blocks_probed_raw"] != "0" {
		t.Errorf("the selective build's span says blocks_reused=%q blocks_probed_raw=%q, want 2 and 0", attrs["blocks_reused"], attrs["blocks_probed_raw"])
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

// TestPeerArtifactsLendNothing caches two always-compress artifacts whose
// compressed payloads lie — one a peer fetch returned and the hot-key
// admission kept, one a replication push through AdmitArtifact — and builds
// the selective artifact of each file here: neither lie may be taken, and
// the builds are byte-identical to a fresh server's.
func TestPeerArtifactsLendNothing(t *testing.T) {
	content := workload.Generate(workload.ClassHTML, 3*selective.BlockSize+5000, 23)
	lie := func() []selective.Block {
		blocks := chunkRaw(content)
		for i := range blocks {
			blocks[i].Compressed, blocks[i].Payload = true, []byte("not what gzip makes of it")
		}
		return blocks
	}
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
		blocks := lie()
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
	srv.AdmitArtifact(key("pushed", pols[0]), lie())
	for _, name := range []string{"fetched", "pushed"} {
		if cached, ok := srv.CachedArtifact(key(name, pols[0])); !ok || !bytes.Equal(cached[0].Payload, lie()[0].Payload) {
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
// the throughput histogram see only the bytes a codec ran on. Equation 6's
// build of a file with a random block runs the codec on the other three;
// the always-compress build then takes those from it and runs the codec on
// the random block alone; a third policy's build takes everything it needs
// and observes nothing.
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
}
