package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/bitio"
	"repro/internal/bwt"
	"repro/internal/checksum"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/decider"
	"repro/internal/experiment"
	"repro/internal/harness"
	"repro/internal/huffman"
	"repro/internal/lz77"
	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/internal/proxy"
	"repro/internal/scenario"
	"repro/internal/selective"
	"repro/internal/simnet"
	corpus "repro/internal/workload"
)

// A probe is a direct timed call into one layer's public functions, on the
// traced workload's own files. Probes run back to back; a reference
// reading is taken whenever ~0.3 s has passed since the last one, and every
// probe run finished in between is normalised with that bracket's speed
// factor, the same way a pass is.
type prober struct {
	ref   *refKernel
	scale float64
	out   map[string]float64

	// traceSHA is the testbed probe's canonical-trace digest.
	traceSHA string

	prev    refReading // last reference reading
	since   time.Time
	pending []probeRun // finished in the open bracket
	probes  map[string]*probe
}

// probeReps is how often a probe runs; its metric is made from the median
// of the normalised durations. A single run of a few milliseconds is at the
// mercy of one collector cycle or one preemption: single-shot readings of
// one probe on one commit sat up to 4x apart.
const probeReps = 3

// probe is one metric's normalised durations so far.
type probe struct {
	// value turns the median normalised duration into the metric.
	value func(normalised time.Duration) float64
	runs  []float64 // nanoseconds
}

type probeRun struct {
	name string
	host time.Duration
}

func newProber(ref *refKernel, scale float64, out map[string]float64) (*prober, error) {
	p := &prober{ref: ref, scale: scale, out: out, since: time.Now(), probes: make(map[string]*probe)}
	var err error
	p.prev, err = ref.read()
	return p, err
}

// flush closes the current bracket.
func (p *prober) flush() error {
	now, err := p.ref.read()
	if err != nil {
		return err
	}
	k := speedFactor(p.prev.wallMs, now.wallMs)
	for _, r := range p.pending {
		pr := p.probes[r.name]
		pr.runs = append(pr.runs, float64(r.host)*k)
	}
	p.pending, p.prev, p.since = p.pending[:0], now, time.Now()
	return nil
}

// finish closes the last bracket and writes every probe's metric.
func (p *prober) finish() error {
	if err := p.flush(); err != nil {
		return err
	}
	for name, pr := range p.probes {
		p.out[name] = pr.value(time.Duration(median(pr.runs)))
	}
	return nil
}

// once runs fn one time and records its duration under name; value derives
// the metric from the median of name's normalised durations.
func (p *prober) once(name string, value func(time.Duration) float64, fn func() error) error {
	start := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	host := time.Since(start)
	if p.probes[name] == nil {
		p.probes[name] = &probe{value: value}
	}
	p.pending = append(p.pending, probeRun{name, host})
	if time.Since(p.since) > 300*time.Millisecond {
		return p.flush()
	}
	return nil
}

// timed runs fn probeReps times.
func (p *prober) timed(name string, value func(time.Duration) float64, fn func() error) error {
	for r := 0; r < probeReps; r++ {
		if err := p.once(name, value, fn); err != nil {
			return err
		}
	}
	return nil
}

// n scales an iteration count for the smoke test.
func (p *prober) n(full int) int { return max(1, int(float64(full)*p.scale)) }

func mbPerS(bytes int) func(time.Duration) float64 {
	return func(d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }
}

func perOp(n int, unit time.Duration) func(time.Duration) float64 {
	return func(d time.Duration) float64 { return float64(d) / float64(unit) / float64(n) }
}

// blocksOf cuts files into the 128 kB blocks every layer below the proxy
// actually sees, up to budget bytes (at least one block).
func blocksOf(files [][]byte, budget int) (blocks [][]byte, total int) {
	for _, f := range files {
		for off := 0; off < len(f) && (total < budget || len(blocks) == 0); off += selective.BlockSize {
			b := f[off:min(off+selective.BlockSize, len(f))]
			blocks = append(blocks, b)
			total += len(b)
		}
	}
	return blocks, total
}

// runProbes fills p.out with every probe metric that needs no live server.
// files are the traced workload's corpus.
func runProbes(p *prober, files [][]byte, seed uint64) error {
	steps := []func(*prober, [][]byte, uint64) error{
		probeCodecs, probeKernels, probeSelective, probeDecider, probeCluster,
		probeTestbed, probeSimnet, probeObs, probeWorkload, probeExperiment,
	}
	for _, step := range steps {
		if err := step(p, files, seed); err != nil {
			return err
		}
	}
	return p.finish()
}

// probeCodecs times each scheme's encoder and decoder over the corpus,
// block by block, and counts the decoder's allocations with pooled
// buffers.
func probeCodecs(p *prober, files [][]byte, _ uint64) error {
	names := map[codec.Scheme][2]string{
		codec.Gzip:     {"flate.deflate_mb_s", "flate.inflate_mb_s"},
		codec.Compress: {"lzw.encode_mb_s", "lzw.decode_mb_s"},
		codec.Bzip2:    {"bwt.encode_mb_s", "bwt.decode_mb_s"},
	}
	blocks, total := blocksOf(files, int(4e6*p.scale))
	var mallocs uint64
	var calls int
	for _, s := range schemes {
		c := codec.MustNew(s, 0)
		comp := make([][]byte, len(blocks))
		if err := p.timed(names[s][0], mbPerS(total), func() error {
			for i, b := range blocks {
				var err error
				if comp[i], err = c.Compress(b); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := p.timed(names[s][1], mbPerS(total), func() error {
			for i, b := range blocks {
				raw, err := codec.DecompressInto(c, codec.GetBuf(len(b)), comp[i], len(b))
				if err != nil {
					return err
				}
				if !bytes.Equal(raw, b) {
					return fmt.Errorf("%v round trip changed block %d", s, i)
				}
				codec.PutBuf(raw)
			}
			return nil
		}); err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		calls += probeReps * len(blocks)
	}
	p.out["codec.decompress_allocs_per_op"] = float64(mallocs) / float64(calls)
	return nil
}

// probeKernels times the stages below the codecs.
func probeKernels(p *prober, files [][]byte, _ uint64) error {
	blocks, total := blocksOf(files, int(1e6*p.scale))

	if err := p.timed("lz77.tokenize_mb_s", mbPerS(total), func() error {
		m, err := lz77.GetMatcher(9)
		if err != nil {
			return err
		}
		defer lz77.PutMatcher(m)
		covered := 0
		for _, b := range blocks {
			m.Tokenize(b, func(t lz77.Token) { covered += t.Advance() })
		}
		if covered != total {
			return fmt.Errorf("tokens cover %d of %d bytes", covered, total)
		}
		return nil
	}); err != nil {
		return err
	}

	// Huffman: a literal/length alphabet with the first block's byte
	// statistics.
	freq := make([]int, 286)
	for i := range freq {
		freq[i] = 1
	}
	for _, c := range blocks[0] {
		freq[c]++
	}
	lengths := make([]uint8, len(freq))
	builds := p.n(2000)
	if err := p.timed("huffman.build_us", perOp(builds, time.Microsecond), func() error {
		for i := 0; i < builds; i++ {
			if err := huffman.BuildLengthsInto(lengths, freq, 15); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	dec, err := huffman.NewDecoder(lengths)
	if err != nil {
		return err
	}
	codes, err := huffman.CanonicalCodes(lengths)
	if err != nil {
		return err
	}
	syms := blocks[0][:min(len(blocks[0]), 1<<16)]
	var enc bytes.Buffer
	bw := bitio.NewLSBWriter(&enc)
	for _, s := range syms {
		bw.WriteBits(uint64(huffman.Reverse(codes[s], lengths[s])), uint(lengths[s]))
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	rounds := p.n(20)
	if err := p.timed("huffman.decode_msym_s", mbPerS(rounds*len(syms)), func() error {
		for r := 0; r < rounds; r++ {
			br := bitio.NewLSBReader(bytes.NewReader(enc.Bytes()))
			for _, want := range syms {
				got, err := dec.DecodeLSB(br)
				if err != nil {
					return err
				}
				if got != int(want) {
					return fmt.Errorf("decoded symbol %d, want %d", got, want)
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	last := make([][]byte, len(blocks))
	ptrs := make([]int, len(blocks))
	if err := p.timed("bwt.transform_mb_s", mbPerS(total), func() error {
		for i, b := range blocks {
			last[i], ptrs[i] = bwt.Transform(b)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := p.timed("bwt.inverse_mb_s", mbPerS(total), func() error {
		for i, b := range blocks {
			if !bytes.Equal(bwt.Inverse(last[i], ptrs[i]), b) {
				return fmt.Errorf("inverse BWT changed block %d", i)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	crcRounds := p.n(8)
	var sink uint32
	err = p.timed("checksum.crc32_mb_s", mbPerS(crcRounds*total), func() error {
		for r := 0; r < crcRounds; r++ {
			for _, b := range blocks {
				sink ^= checksum.CRC32(b)
			}
		}
		return nil
	})
	_ = sink
	return err
}

// probeSelective times the SEL1 container on the text/random mixture whose
// blocks the decider must split.
func probeSelective(p *prober, _ [][]byte, seed uint64) error {
	data := corpus.MixedFile(max(2*selective.BlockSize, int(1e6*p.scale)), seed)
	c := codec.MustNew(codec.Gzip, 0)
	var enc *selective.Encoded
	if err := p.timed("selective.encode_mb_s", mbPerS(len(data)), func() (err error) {
		enc, err = selective.Encode(data, c, selective.PaperDecider{})
		return err
	}); err != nil {
		return err
	}
	stream := enc.Bytes()
	if err := p.timed("selective.decode_mb_s", mbPerS(len(data)), func() error {
		got, err := selective.Decode(stream, len(data))
		if err == nil && !bytes.Equal(got, data) {
			err = fmt.Errorf("selective round trip changed the file")
		}
		return err
	}); err != nil {
		return err
	}
	parses := p.n(2000)
	return p.timed("selective.parse_us", perOp(parses, time.Microsecond), func() error {
		for i := 0; i < parses; i++ {
			if _, _, err := selective.Parse(stream); err != nil {
				return err
			}
		}
		return nil
	})
}

func probeDecider(p *prober, _ [][]byte, _ uint64) error {
	d := decider.New(decider.Config{})
	n := p.n(200_000)
	// sweep calls decide over compression factors from 6.5 down to 1: a
	// decider that says the same thing at both ends is not deciding.
	sweep := func(decide func(rawLen, compLen int) bool) error {
		compress := 0
		for i := 0; i < n; i++ {
			if decide(selective.BlockSize, 20_000+i*37%110_000) {
				compress++
			}
		}
		if compress == 0 || compress == n {
			return fmt.Errorf("decider never changed its mind over the factor sweep")
		}
		return nil
	}
	if err := p.timed("decider.decide_ns", perOp(n, time.Nanosecond), func() error {
		return sweep(func(rawLen, compLen int) bool {
			return d.Decide(decider.BlockContext{RawLen: rawLen, CompLen: compLen}).Compress
		})
	}); err != nil {
		return err
	}
	return p.timed("decider.should_compress_ns", perOp(n, time.Nanosecond), func() error {
		return sweep(d.ShouldCompress)
	})
}

// probeCluster times the ring and sketch primitives and one PXY-P hop: a
// non-owner node fetching a finished gzip artifact from its owner over a
// unix socket.
func probeCluster(p *prober, _ [][]byte, seed uint64) error {
	members := []string{"na", "nb"}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = cluster.KeyString(proxy.ArtifactKey{Name: fmt.Sprintf("file-%04d", i), Gen: 1, Scheme: codec.Gzip, FP: "always"})
	}
	ring := cluster.NewRing(members, 0)
	n := p.n(200_000)
	owners := 0
	if err := p.timed("cluster.ring_owner_ns", perOp(n, time.Nanosecond), func() error {
		for i := 0; i < n; i++ {
			if ring.Owner(keys[i%len(keys)]) == "na" {
				owners++
			}
		}
		return nil
	}); err != nil {
		return err
	}
	sk := cluster.NewSketch(64)
	adds := p.n(20_000) // ~35 us each: with this many distinct keys every Add prunes
	if err := p.timed("cluster.sketch_add_ns", perOp(adds, time.Nanosecond), func() error {
		for i := 0; i < adds; i++ {
			sk.Add(keys[i%len(keys)])
		}
		return nil
	}); err != nil {
		return err
	}

	content := corpus.Generate(corpus.ClassHTML, max(2*selective.BlockSize, int(512e3*p.scale)), seed)
	addrs := make(map[string]string)
	dial := func(node string) (net.Conn, error) { return net.Dial("unix", addrs[node]) }
	nodes := make(map[string]*cluster.Node)
	for _, id := range members {
		srv := proxy.NewServerWith(nil, proxy.Config{})
		defer srv.Close()
		node, err := cluster.NewNode(cluster.Config{Self: id, Nodes: members, Dial: dial, Server: srv})
		if err != nil {
			return err
		}
		ln, err := net.Listen("unix", fmt.Sprintf("@repro-bench-%d-%d", os.Getpid(), socketSeq.Add(1)))
		if err != nil {
			return err
		}
		addrs[id] = ln.Addr().String()
		node.Serve(ln)
		defer node.Close()
		nodes[id] = node
		// Every candidate name is registered on both nodes, as a cluster's
		// shared catalogue would be.
		for i := 0; i < 64; i++ {
			srv.Register(fmt.Sprintf("page-%02d.html", i), content)
		}
	}
	var key proxy.ArtifactKey
	for i := 0; i < 64 && key.Name == ""; i++ {
		k := proxy.ArtifactKey{Name: fmt.Sprintf("page-%02d.html", i), Gen: 1, Scheme: codec.Gzip, FP: "always"}
		if nodes["na"].Ring().Owner(cluster.KeyString(k)) == "nb" {
			key = k
		}
	}
	if key.Name == "" {
		return fmt.Errorf("probe cluster: no candidate key lands on the peer")
	}
	if _, err := nodes["na"].PeerFetch(key); err != nil { // the owner compresses once, here
		return fmt.Errorf("probe cluster: warm-up peer fetch: %w", err)
	}
	fetches := p.n(30)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	if err := p.timed("cluster.peer_fetch_ms", perOp(fetches, time.Millisecond), func() error {
		for i := 0; i < fetches; i++ {
			blocks, err := nodes["na"].PeerFetch(key)
			if err != nil {
				return err
			}
			raw := 0
			for _, b := range blocks {
				raw += b.RawLen
			}
			if raw != len(content) {
				return fmt.Errorf("peer fetch returned %d raw bytes, want %d", raw, len(content))
			}
		}
		return nil
	}); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms)
	p.out["cluster.peer_fetch_allocs"] = float64(ms.Mallocs-before) / float64(probeReps*fetches)
	return nil
}

// probeClients is the fleet size the testbed probe runs: large enough for
// per-client cost to dominate start-up, small enough to take ~0.1 s.
const probeClients = 400

// probeTestbed times the scenario front end and one small harness run with
// its two renderings.
func probeTestbed(p *prober, _ [][]byte, seed uint64) error {
	n := p.n(2000)
	var spec *scenario.Spec
	if err := p.timed("scenario.parse_us", perOp(n, time.Microsecond), func() (err error) {
		for i := 0; i < n && err == nil; i++ {
			spec, err = scenario.Parse(fleetSpec)
		}
		return err
	}); err != nil {
		return err
	}
	if err := p.timed("scenario.compile_us", perOp(n, time.Microsecond), func() error {
		for i := 0; i < n; i++ {
			if sc := spec.Compile(int64(seed)); sc.Clients != spec.Clients {
				return fmt.Errorf("compile lost the client count")
			}
		}
		return nil
	}); err != nil {
		return err
	}
	spec.Clients = max(20, int(probeClients*p.scale))
	var rep *harness.Report
	if err := p.timed("harness.run_ms_per_client", perOp(spec.Clients, time.Millisecond), func() (err error) {
		if rep, err = spec.Run(int64(seed)); err == nil && !rep.OK() {
			err = fmt.Errorf("oracle: %s", rep.Violations[0])
		}
		return err
	}); err != nil {
		return err
	}
	if err := p.timed("harness.events_ms", perOp(1, time.Millisecond), func() error {
		if n, want := len(rep.Events()), spec.Clients*spec.Fetches; n != want {
			return fmt.Errorf("%d events for %d fetches", n, want)
		}
		return nil
	}); err != nil {
		return err
	}
	var trace string
	if err := p.timed("harness.trace_ms", perOp(1, time.Millisecond), func() error {
		trace = rep.Trace()
		return nil
	}); err != nil {
		return err
	}
	// Not a metric (a digest has no better direction): printed so that two
	// commits can be seen to agree on the testbed's wire behaviour.
	p.traceSHA = fmt.Sprintf("%x", sha256.Sum256([]byte(trace)))[:16]
	return nil
}

// probeSimnet times the virtual clock's park/wake cycle with a fleet's
// worth of sleepers, and the host cost of pushing bytes through a paced
// virtual link.
func probeSimnet(p *prober, _ [][]byte, _ uint64) error {
	sleepers, naps := p.n(2500), 20
	if err := p.timed("simnet.sleep_wake_ns", perOp(sleepers*naps, time.Nanosecond), func() error {
		clock := simnet.NewClock()
		var wg sync.WaitGroup
		for g := 0; g < sleepers; g++ {
			wg.Add(1)
			clock.Go(func() {
				defer wg.Done()
				for j := 0; j < naps; j++ {
					clock.Sleep(time.Duration(1+(g*7+j)%13) * time.Millisecond)
				}
			})
		}
		// Waiting here, outside the ledger, is what lets time advance.
		wg.Wait()
		return nil
	}); err != nil {
		return err
	}

	payload := make([]byte, max(64<<10, int(1e6*p.scale)))
	return p.timed("simnet.conn_ms_per_mb", func(d time.Duration) float64 {
		return ms(d) / (float64(len(payload)) / 1e6)
	}, func() error {
		clock := simnet.NewClock()
		nw := simnet.NewNetwork(clock, simnet.WaveLAN11())
		ln, err := nw.Listen("sink")
		if err != nil {
			return err
		}
		defer ln.Close()
		sent := make(chan error, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				sent <- err
				return
			}
			defer conn.Close()
			for off := 0; off < len(payload); off += 16 << 10 {
				if _, err := conn.Write(payload[off:min(off+16<<10, len(payload))]); err != nil {
					sent <- err
					return
				}
			}
			sent <- nil
		}()
		var got int64
		var rerr error
		clock.Run(func() {
			conn, err := nw.Dial("sink")
			if err != nil {
				rerr = err
				return
			}
			defer conn.Close()
			got, rerr = io.Copy(io.Discard, conn)
		})
		if err := <-sent; err != nil {
			return err
		}
		if rerr == nil && got != int64(len(payload)) {
			rerr = fmt.Errorf("virtual link delivered %d of %d bytes", got, len(payload))
		}
		return rerr
	})
}

// probeObs prices the telemetry plane itself: one span with the client's
// five phases, and one wide event flattened from it into a sink.
func probeObs(p *prober, _ [][]byte, _ uint64) error {
	n := p.n(100_000)
	tracer := obs.NewTracer(256)
	var last obs.SpanData
	tracer.SetOnFinish(func(d obs.SpanData) { last = d })
	if err := p.timed("obs.span_ns", perOp(n, time.Nanosecond), func() error {
		for i := 0; i < n; i++ {
			s := tracer.Start("fetch")
			now := time.Now()
			for _, ph := range [...]string{"dial", "header", "recv", "decompress", "verify"} {
				s.Phase(ph, obs.ClassRadio, now, time.Microsecond, 1)
			}
			s.Finish()
		}
		return nil
	}); err != nil {
		return err
	}
	sink := export.NewSink(io.Discard, 0, 0)
	if err := p.timed("obs.event_emit_ns", perOp(n, time.Nanosecond), func() error {
		for i := 0; i < n; i++ {
			sink.Record(export.FromSpan(last))
		}
		return nil
	}); err != nil {
		return err
	}
	if err := sink.Close(); err != nil {
		return err
	}
	if want := int64(probeReps * n); sink.Recorded()+sink.Dropped() != want {
		return fmt.Errorf("sink saw %d+%d of %d events", sink.Recorded(), sink.Dropped(), want)
	}
	return nil
}

// probeWorkload times the corpus generators every set-up pays for.
func probeWorkload(p *prober, _ [][]byte, seed uint64) error {
	size := max(16<<10, int(512e3*p.scale))
	if err := p.timed("workload.generate_mb_s", mbPerS(2*size), func() error {
		for i, c := range []corpus.Class{corpus.ClassHTML, corpus.ClassSource} {
			if got := len(corpus.Generate(c, size, seed+uint64(i))); got != size {
				return fmt.Errorf("generated %d bytes, want %d", got, size)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	size /= 4
	return p.timed("workload.ratio_mb_s", mbPerS(size), func() error {
		if got := len(corpus.GenerateRatio(size, 1.5, seed, gzipFactor)); got != size {
			return fmt.Errorf("generated %d bytes, want %d", got, size)
		}
		return nil
	})
}

// probeExperiment is the only number on the figure world (sim, device,
// wlan, pipeline): one reduced Figure 1/2 regeneration.
func probeExperiment(p *prober, _ [][]byte, _ uint64) error {
	cfg := experiment.Config{Scale: 1.0 / 80, LargeSubset: 4, SmallSubset: 3}
	if p.scale < 1 {
		cfg.LargeSubset, cfg.SmallSubset = 1, 1
	}
	return p.timed("experiment.scheme_comparison_ms", perOp(1, time.Millisecond), func() error {
		comps, err := cfg.SchemeComparison()
		if err == nil && len(comps) == 0 {
			err = fmt.Errorf("no comparisons")
		}
		return err
	})
}

// probeServer times the two server entry points outside the request path:
// the artifact lookup a peer probe uses, and ahead-of-time compression on
// a fresh server.
func probeServer(p *prober, l *loopback) error {
	var keys []proxy.ArtifactKey
	for ki := range l.keys {
		ak := l.artifactKey(ki)
		if _, ok := l.srv.CachedArtifact(ak); ok {
			keys = append(keys, ak)
		}
	}
	if len(keys) == 0 {
		return fmt.Errorf("probe server: no artifact is cached after the passes")
	}
	n := p.n(200_000)
	if err := p.timed("proxy.cached_artifact_ns", perOp(n, time.Nanosecond), func() error {
		for i := 0; i < n; i++ {
			if _, ok := l.srv.CachedArtifact(keys[i%len(keys)]); !ok {
				return fmt.Errorf("artifact %v left the cache", keys[i%len(keys)])
			}
		}
		return nil
	}); err != nil {
		return err
	}
	files := min(2, len(l.contents))
	for r := 0; r < probeReps; r++ {
		// A second Precompress on one server would find the artifact cached.
		fresh := proxy.NewServerWith(nil, proxy.Config{})
		for i := 0; i < files; i++ {
			fresh.Register(l.spec.files[i].name, l.contents[i])
		}
		err := p.once("proxy.precompress_ms", perOp(files*len(schemes), time.Millisecond), func() error {
			for i := 0; i < files; i++ {
				for _, s := range schemes {
					if err := fresh.Precompress(l.spec.files[i].name, s); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if cerr := fresh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
