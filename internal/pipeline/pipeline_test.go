package pipeline

import (
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/energy"
	"repro/internal/selective"
	"repro/internal/workload"
)

func mustRun(t testing.TB, spec Spec) Result {
	t.Helper()
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func textData(n int) []byte { return workload.Generate(workload.ClassSource, n, 123) }

func TestPlainDownloadMatchesModel(t *testing.T) {
	p := energy.Params11Mbps()
	for _, n := range []int{200_000, 1_000_000, 3_000_000} {
		res := mustRun(t, Spec{Data: textData(n), Mode: ModePlain})
		want := p.DownloadEnergy(float64(n) / 1e6)
		if rel := math.Abs(res.ExactEnergyJ-want) / want; rel > 0.02 {
			t.Errorf("n=%d: sim %.4f J vs model %.4f J (%.2f%%)", n, res.ExactEnergyJ, want, rel*100)
		}
	}
}

func TestInterleavedMatchesModel(t *testing.T) {
	p := energy.Params11Mbps()
	n := 2_000_000
	data := textData(n)
	res := mustRun(t, Spec{Data: data, Scheme: codec.Gzip, Mode: ModeInterleaved})
	s := float64(n) / 1e6
	sc := float64(res.WireBytes) / 1e6
	want := p.InterleavedEnergy(s, sc)
	if rel := math.Abs(res.ExactEnergyJ-want) / want; rel > 0.06 {
		t.Errorf("sim %.4f J vs model %.4f J (%.1f%%)", res.ExactEnergyJ, want, rel*100)
	}
}

func TestSequentialMatchesModel(t *testing.T) {
	p := energy.Params11Mbps()
	n := 2_000_000
	res := mustRun(t, Spec{Data: textData(n), Scheme: codec.Gzip, Mode: ModeSequential})
	s := float64(n) / 1e6
	sc := float64(res.WireBytes) / 1e6
	// Eq. 2: download the compressed file, then decompress.
	tiPrime, ti1 := p.IdleSplit(s, sc)
	want := p.M*sc + p.Cs + (tiPrime+ti1)*p.Pi + p.DecompressTime(s, sc)*p.Pd
	if rel := math.Abs(res.ExactEnergyJ-want) / want; rel > 0.06 {
		t.Errorf("sim %.4f J vs model %.4f J (%.1f%%)", res.ExactEnergyJ, want, rel*100)
	}
}

func TestInterleavingBeatsSequential(t *testing.T) {
	data := textData(3_000_000)
	seq := mustRun(t, Spec{Data: data, Scheme: codec.Gzip, Mode: ModeSequential})
	inter := mustRun(t, Spec{Data: data, Scheme: codec.Gzip, Mode: ModeInterleaved})
	if !(inter.ExactEnergyJ < seq.ExactEnergyJ) {
		t.Errorf("interleaved %.3f J should beat sequential %.3f J", inter.ExactEnergyJ, seq.ExactEnergyJ)
	}
	if !(inter.TotalSeconds < seq.TotalSeconds) {
		t.Errorf("interleaved %v should be faster than sequential %v", inter.TotalSeconds, seq.TotalSeconds)
	}
}

func TestCompressionSavesOnCompressibleData(t *testing.T) {
	data := workload.Generate(workload.ClassXML, 2_000_000, 5)
	plain := mustRun(t, Spec{Data: data, Mode: ModePlain})
	comp := mustRun(t, Spec{Data: data, Scheme: codec.Gzip, Mode: ModeInterleaved})
	if comp.ExactEnergyJ >= plain.ExactEnergyJ/3 {
		t.Errorf("XML at factor %.1f should cut energy >3x: %.3f vs %.3f J",
			comp.Factor, comp.ExactEnergyJ, plain.ExactEnergyJ)
	}
}

func TestCompressionLosesOnRandomData(t *testing.T) {
	data := workload.Generate(workload.ClassRandom, 1_000_000, 5)
	plain := mustRun(t, Spec{Data: data, Mode: ModePlain})
	comp := mustRun(t, Spec{Data: data, Scheme: codec.Gzip, Mode: ModeInterleaved})
	if comp.ExactEnergyJ <= plain.ExactEnergyJ {
		t.Errorf("random data should lose with blind compression: %.3f vs %.3f J",
			comp.ExactEnergyJ, plain.ExactEnergyJ)
	}
}

func TestSelectiveNeverLoses(t *testing.T) {
	// The paper's Section 4.3 claim, on the worst case for blind
	// compression: incompressible data.
	for _, seed := range []uint64{1, 2, 3} {
		data := workload.Generate(workload.ClassRandom, 1_000_000, seed)
		plain := mustRun(t, Spec{Data: data, Mode: ModePlain})
		sel := mustRun(t, Spec{Data: data, Scheme: codec.Zlib, Mode: ModeInterleaved, Selective: true})
		if sel.ExactEnergyJ > plain.ExactEnergyJ*1.01 {
			t.Errorf("seed %d: selective %.3f J exceeds plain %.3f J", seed, sel.ExactEnergyJ, plain.ExactEnergyJ)
		}
		if sel.BlocksCompressed != 0 {
			t.Errorf("seed %d: %d random blocks compressed", seed, sel.BlocksCompressed)
		}
	}
}

func TestSelectiveStillWinsOnCompressible(t *testing.T) {
	data := workload.Generate(workload.ClassWebLog, 2_000_000, 7)
	plain := mustRun(t, Spec{Data: data, Mode: ModePlain})
	sel := mustRun(t, Spec{Data: data, Scheme: codec.Zlib, Mode: ModeInterleaved, Selective: true})
	if sel.ExactEnergyJ >= plain.ExactEnergyJ/2 {
		t.Errorf("selective on logs: %.3f vs plain %.3f J", sel.ExactEnergyJ, plain.ExactEnergyJ)
	}
}

func TestSelectiveMixedBeatsBlindCompression(t *testing.T) {
	data := workload.MixedFile(2_000_000, 11)
	blind := mustRun(t, Spec{Data: data, Scheme: codec.Zlib, Mode: ModeInterleaved})
	sel := mustRun(t, Spec{Data: data, Scheme: codec.Zlib, Mode: ModeInterleaved, Selective: true})
	if sel.ExactEnergyJ >= blind.ExactEnergyJ*1.02 {
		t.Errorf("selective %.3f J should not exceed blind %.3f J on mixed data",
			sel.ExactEnergyJ, blind.ExactEnergyJ)
	}
	if sel.BlocksCompressed == 0 || sel.BlocksCompressed == sel.BlocksTotal {
		t.Errorf("mixed file decisions %d/%d", sel.BlocksCompressed, sel.BlocksTotal)
	}
}

func TestOnDemandZlibPipelineMasksCompression(t *testing.T) {
	// The revised zlib of Section 5 compresses block i+1 while block i
	// transmits: time and energy stay close to the precompressed run.
	data := textData(2_000_000)
	pre := mustRun(t, Spec{Data: data, Scheme: codec.Zlib, Mode: ModeInterleaved})
	dem := mustRun(t, Spec{Data: data, Scheme: codec.Zlib, Mode: ModeInterleaved, OnDemand: true})
	if dem.TotalSeconds.Seconds() > pre.TotalSeconds.Seconds()*1.3 {
		t.Errorf("on-demand %.3fs much slower than precompressed %.3fs",
			dem.TotalSeconds.Seconds(), pre.TotalSeconds.Seconds())
	}
	if dem.StallSeconds > dem.TotalSeconds/4 {
		t.Errorf("zlib on-demand stalled %.1f%% of the time",
			100*dem.StallSeconds.Seconds()/dem.TotalSeconds.Seconds())
	}
}

func TestOnDemandWholeFileShowsCompressionTime(t *testing.T) {
	// The stock gzip tool compresses the whole file first (the visible
	// compression component of Figure 12); the block pipeline masks it.
	data := textData(2_000_000)
	whole := mustRun(t, Spec{Data: data, Scheme: codec.Gzip, Mode: ModeInterleaved,
		OnDemand: true, OnDemandWholeFile: true})
	piped := mustRun(t, Spec{Data: data, Scheme: codec.Zlib, Mode: ModeInterleaved, OnDemand: true})
	if whole.TotalSeconds <= piped.TotalSeconds {
		t.Errorf("whole-file on-demand (%.3fs) should be slower than block-pipelined (%.3fs)",
			whole.TotalSeconds.Seconds(), piped.TotalSeconds.Seconds())
	}
	if whole.StallSeconds == 0 {
		t.Error("whole-file on-demand should stall during up-front compression")
	}
}

func TestOnDemandBzip2StallsMore(t *testing.T) {
	data := textData(1_500_000)
	gz := mustRun(t, Spec{Data: data, Scheme: codec.Gzip, Mode: ModeInterleaved, OnDemand: true})
	bz := mustRun(t, Spec{Data: data, Scheme: codec.Bzip2, Mode: ModeInterleaved, OnDemand: true})
	if bz.StallSeconds <= gz.StallSeconds {
		t.Errorf("bzip2 on-demand should stall more: %v vs %v", bz.StallSeconds, gz.StallSeconds)
	}
}

func TestBzip2SleepModeHelps(t *testing.T) {
	data := workload.Generate(workload.ClassSource, 2_000_000, 9)
	plain := mustRun(t, Spec{Data: data, Scheme: codec.Bzip2, Mode: ModeSequential})
	sleep := mustRun(t, Spec{Data: data, Scheme: codec.Bzip2, Mode: ModeSequential, SleepDuringDecompress: true})
	if !(sleep.ExactEnergyJ < plain.ExactEnergyJ) {
		t.Errorf("sleep during bzip2 decompress should save: %.3f vs %.3f J",
			sleep.ExactEnergyJ, plain.ExactEnergyJ)
	}
}

func TestGzipBeatsBzip2AndCompressOnEnergy(t *testing.T) {
	// The paper's headline (Figure 2): gzip wins on typical compressible
	// content; bzip2 runs with power saving as in the paper.
	data := workload.Generate(workload.ClassPostscript, 2_000_000, 13)
	gz := mustRun(t, Spec{Data: data, Scheme: codec.Gzip, Mode: ModeSequential})
	lz := mustRun(t, Spec{Data: data, Scheme: codec.Compress, Mode: ModeSequential})
	bz := mustRun(t, Spec{Data: data, Scheme: codec.Bzip2, Mode: ModeSequential, SleepDuringDecompress: true})
	if !(gz.ExactEnergyJ < lz.ExactEnergyJ) {
		t.Errorf("gzip %.3f J should beat compress %.3f J", gz.ExactEnergyJ, lz.ExactEnergyJ)
	}
	if !(gz.ExactEnergyJ < bz.ExactEnergyJ) {
		t.Errorf("gzip %.3f J should beat bzip2 %.3f J", gz.ExactEnergyJ, bz.ExactEnergyJ)
	}
}

func Test2MbpsFavoursCompression(t *testing.T) {
	// At 2 Mb/s communication is so expensive that even modest factors pay
	// off strongly (paper Section 4.2).
	data := workload.Generate(workload.ClassBinary, 1_000_000, 17)
	plain := mustRun(t, Spec{Data: data, Mode: ModePlain, Rate: energy.Rate2Mbps()})
	comp := mustRun(t, Spec{Data: data, Scheme: codec.Gzip, Mode: ModeInterleaved, Rate: energy.Rate2Mbps()})
	saving := 1 - comp.ExactEnergyJ/plain.ExactEnergyJ
	if saving < 0.3 {
		t.Errorf("2 Mb/s saving %.2f, want > 0.3 at factor %.2f", saving, comp.Factor)
	}
}

func TestMeteredCloseToExact(t *testing.T) {
	data := textData(1_000_000)
	res := mustRun(t, Spec{Data: data, Scheme: codec.Gzip, Mode: ModeInterleaved})
	if rel := math.Abs(res.MeteredEnergyJ-res.ExactEnergyJ) / res.ExactEnergyJ; rel > 0.05 {
		t.Errorf("meter error %.2f%%", rel*100)
	}
}

func TestModeRequired(t *testing.T) {
	if _, err := Run(Spec{Data: []byte("x")}); err == nil {
		t.Error("missing mode accepted")
	}
}

func TestCustomDecider(t *testing.T) {
	data := workload.Generate(workload.ClassRandom, 500_000, 21)
	res := mustRun(t, Spec{
		Data: data, Scheme: codec.Zlib, Mode: ModeInterleaved,
		Selective: true, Decider: selective.AlwaysCompress{},
	})
	if res.BlocksCompressed != res.BlocksTotal {
		t.Errorf("AlwaysCompress left %d/%d blocks raw",
			res.BlocksTotal-res.BlocksCompressed, res.BlocksTotal)
	}
}
