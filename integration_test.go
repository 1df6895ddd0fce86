package repro_test

// System-level integration tests: the whole corpus, every scheme, every
// proxy mode, content verified end to end over real sockets; and the
// simulated experiment stack cross-checked against the analytic model on
// the same bytes.

import (
	"bytes"
	"math"
	"net"
	"testing"
	"time"

	"repro"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// TestCorpusThroughProxyAllModes serves a miniature full corpus and
// fetches every file in every mode with every scheme, verifying content.
// The sweep runs over the deterministic virtual testbed (internal/simnet)
// at the paper's 11 Mb/s WaveLAN effective rate: connection deadlines and
// transfer pacing advance the simulated clock, so the test spends wall
// time only on real compute, never on sockets or sleeps.
func TestCorpusThroughProxyAllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus proxy sweep")
	}
	clock := simnet.NewClock()
	nw := simnet.NewNetwork(clock, simnet.WaveLAN11())
	ln, err := nw.Listen("proxy")
	if err != nil {
		t.Fatal(err)
	}
	srv := repro.NewProxyServerWith(nil, repro.ProxyConfig{Clock: clock})
	specs := repro.ScaledCorpus(0.01)
	contents := make(map[string][]byte, len(specs))
	for _, s := range specs {
		data := s.Generate()
		contents[s.Name] = data
		srv.Register(s.Name, data)
	}
	srv.Serve(ln)
	defer srv.Close()
	cli := repro.NewProxyClient("proxy")
	cli.Clock = clock
	cli.Dial = func() (net.Conn, error) { return nw.Dial("proxy") }
	cli.Timeout = 5 * time.Minute

	fetches, cacheable := 0, 0
	clock.Run(func() {
		names, err := cli.List()
		if err != nil {
			t.Error(err)
			return
		}
		if len(names) != len(specs) {
			t.Errorf("listed %d files, registered %d", len(names), len(specs))
			return
		}

		for _, name := range names {
			for _, scheme := range []repro.Scheme{repro.Gzip, repro.Compress, repro.Bzip2, repro.Zlib} {
				for _, mode := range []repro.ProxyClientMode{repro.ProxyRaw, repro.ProxyOnDemand, repro.ProxySelective} {
					got, stats, err := cli.Fetch(name, scheme, mode)
					if err != nil {
						t.Errorf("%s/%v/%v: %v", name, scheme, mode, err)
						return
					}
					if !bytes.Equal(got, contents[name]) {
						t.Errorf("%s/%v/%v: content mismatch", name, scheme, mode)
						return
					}
					if stats.RawBytes != len(contents[name]) {
						t.Errorf("%s/%v/%v: raw bytes %d", name, scheme, mode, stats.RawBytes)
						return
					}
					fetches++
					if mode != repro.ProxyRaw {
						cacheable++
					}
				}
			}
		}

		// Repeat one compressing fetch: the sharded artifact cache must
		// serve it without re-compressing.
		if _, _, err := cli.Fetch(names[0], repro.Gzip, repro.ProxyOnDemand); err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		return
	}
	st := srv.Stats()
	if st.CacheHits < 1 {
		t.Errorf("repeat fetch was not a cache hit: %+v", st)
	}
	if st.CacheHits+st.CacheMisses != int64(cacheable)+1 {
		t.Errorf("hits(%d)+misses(%d) != %d cacheable fetches", st.CacheHits, st.CacheMisses, cacheable+1)
	}
	if st.Compressions+st.Coalesced != st.CacheMisses {
		t.Errorf("compressions(%d)+coalesced(%d) != misses(%d)", st.Compressions, st.Coalesced, st.CacheMisses)
	}
	if st.Requests != int64(fetches)+2 { // + the List call + the repeat fetch
		t.Errorf("Requests = %d, want %d", st.Requests, fetches+2)
	}
	// The client's one kept connection carries every request.
	if st.ConnsTotal != 1 {
		t.Errorf("ConnsTotal = %d, want 1", st.ConnsTotal)
	}
	if st.Errors != 0 {
		t.Errorf("server recorded %d errors during the sweep", st.Errors)
	}
}

// TestSimulationAgreesWithModelAcrossCorpus runs the interleaved pipeline
// over a corpus slice and cross-checks against the analytic model; this is
// the end-to-end statement of Figure 7 through the public API.
func TestSimulationAgreesWithModelAcrossCorpus(t *testing.T) {
	model := repro.Params11Mbps()
	checked := 0
	for _, spec := range repro.ScaledCorpus(0.1) {
		if !spec.Large || spec.PaperGzip < 1.5 {
			continue
		}
		data := spec.Generate()
		res, err := repro.RunExperiment(repro.ExperimentSpec{
			Data: data, Scheme: repro.Zlib, Mode: repro.ModeInterleaved,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := float64(res.RawBytes) / 1e6
		sc := float64(res.WireBytes) / 1e6
		pred := model.InterleavedEnergy(s, sc)
		if rel := math.Abs(pred-res.ExactEnergyJ) / res.ExactEnergyJ; rel > 0.08 {
			t.Errorf("%s: model %.4f vs sim %.4f (%.1f%%)", spec.Name, pred, res.ExactEnergyJ, rel*100)
		}
		checked++
		if checked >= 8 {
			break
		}
	}
	if checked < 5 {
		t.Fatalf("only %d files checked", checked)
	}
}

// TestEndToEndDecisionAgreement: the selective scheme's per-file outcome
// must agree with the whole-file Equation 6 decision for single-block
// files.
func TestEndToEndDecisionAgreement(t *testing.T) {
	c, err := repro.NewCodec(repro.Zlib, 9)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"compressible", workload.Generate(workload.ClassXML, 100_000, 1)},
		{"incompressible", workload.Generate(workload.ClassRandom, 100_000, 2)},
		{"tiny", workload.Generate(workload.ClassMail, 2_000, 3)},
	}
	for _, tc := range cases {
		stream, stats, err := repro.SelectiveEncode(tc.data, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := c.Compress(tc.data)
		if err != nil {
			t.Fatal(err)
		}
		want := repro.ShouldCompress(len(tc.data), len(comp)) && len(tc.data) >= repro.FileThresholdBytes
		got := stats.BlocksCompressed > 0
		if got != want {
			t.Errorf("%s: selective compressed=%v, Eq.6 says %v", tc.name, got, want)
		}
		back, err := repro.SelectiveDecode(stream, 0)
		if err != nil || !bytes.Equal(back, tc.data) {
			t.Fatalf("%s: round trip: %v", tc.name, err)
		}
	}
}

// TestFullStackInterleavedDownloadSaves: through the public API, a
// level-9 zlib download decompressed block by block while it arrives saves
// more than 40% of the plain download's energy.
func TestFullStackInterleavedDownloadSaves(t *testing.T) {
	data := workload.Generate(workload.ClassSource, 1_200_000, 9)

	down, err := repro.RunExperiment(repro.ExperimentSpec{
		Data: data, Scheme: repro.Zlib, Mode: repro.ModeInterleaved,
	})
	if err != nil {
		t.Fatal(err)
	}
	downPlain, err := repro.RunExperiment(repro.ExperimentSpec{Data: data, Mode: repro.ModePlain})
	if err != nil {
		t.Fatal(err)
	}
	if !(down.ExactEnergyJ < downPlain.ExactEnergyJ*0.6) {
		t.Errorf("download at level 9 should save >40%%: %.3f vs %.3f",
			down.ExactEnergyJ, downPlain.ExactEnergyJ)
	}
}
