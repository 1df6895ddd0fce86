package pipeline

import (
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/workload"
)

func mustUpload(t testing.TB, spec UploadSpec) Result {
	t.Helper()
	res, err := RunUpload(spec)
	if err != nil {
		t.Fatalf("RunUpload: %v", err)
	}
	return res
}

func TestUploadPlainMatchesModel(t *testing.T) {
	p := energy.Params11Mbps()
	for _, n := range []int{300_000, 1_000_000} {
		data := workload.Generate(workload.ClassAudio, n, 3)
		res := mustUpload(t, UploadSpec{Data: data})
		want := p.UploadEnergy(float64(n) / 1e6)
		if rel := math.Abs(res.ExactEnergyJ-want) / want; rel > 0.02 {
			t.Errorf("n=%d: sim %.4f vs model %.4f (%.1f%%)", n, res.ExactEnergyJ, want, rel*100)
		}
	}
}

func TestUploadCompressionSavesOnText(t *testing.T) {
	// "Lively captured" content that compresses well: uploading the
	// compressed form must save despite the handheld's slow compressor.
	data := workload.Generate(workload.ClassWebLog, 2_000_000, 5)
	plain := mustUpload(t, UploadSpec{Data: data})
	comp := mustUpload(t, UploadSpec{Data: data, Scheme: codec.Zlib, Compressed: true})
	if comp.ExactEnergyJ >= plain.ExactEnergyJ {
		t.Errorf("compressed upload %.3f J should beat plain %.3f J at factor %.2f",
			comp.ExactEnergyJ, plain.ExactEnergyJ, comp.Factor)
	}
}

func TestUploadCompressionLosesOnRandom(t *testing.T) {
	data := workload.Generate(workload.ClassRandom, 1_000_000, 5)
	plain := mustUpload(t, UploadSpec{Data: data})
	comp := mustUpload(t, UploadSpec{Data: data, Scheme: codec.Zlib, Compressed: true})
	if comp.ExactEnergyJ <= plain.ExactEnergyJ {
		t.Errorf("blind compressed upload of random data should lose: %.3f vs %.3f J",
			comp.ExactEnergyJ, plain.ExactEnergyJ)
	}
	// Selective upload skips the doomed blocks and stays near plain.
	sel := mustUpload(t, UploadSpec{Data: data, Scheme: codec.Zlib, Compressed: true, Selective: true})
	if sel.ExactEnergyJ >= comp.ExactEnergyJ {
		t.Errorf("selective upload %.3f J should beat blind %.3f J on random data",
			sel.ExactEnergyJ, comp.ExactEnergyJ)
	}
}

func TestUploadCostsMoreThanDownloadPerByte(t *testing.T) {
	data := workload.Generate(workload.ClassAudio, 1_000_000, 7)
	up := mustUpload(t, UploadSpec{Data: data})
	down := mustRun(t, Spec{Data: data, Mode: ModePlain})
	if !(up.ExactEnergyJ > down.ExactEnergyJ) {
		t.Errorf("transmit (%.3f J) should cost more than receive (%.3f J)",
			up.ExactEnergyJ, down.ExactEnergyJ)
	}
}

func TestUploadStallIncludesLeadIn(t *testing.T) {
	data := workload.Generate(workload.ClassSource, 1_000_000, 9)
	comp := mustUpload(t, UploadSpec{Data: data, Scheme: codec.Gzip, Compressed: true})
	if comp.StallSeconds == 0 {
		t.Error("first-block compression lead-in should appear as stall")
	}
	if comp.DecompressSeconds == 0 {
		t.Error("compression CPU time not recorded")
	}
}

func TestUploadEmptyData(t *testing.T) {
	res := mustUpload(t, UploadSpec{Data: nil})
	if res.ExactEnergyJ != 0 && res.RawBytes != 0 {
		t.Errorf("empty upload: %+v", res)
	}
}

func TestUploadModelThreshold(t *testing.T) {
	// The handheld compressor is ~9x slower than the proxy, so the upload
	// break-even factor must exceed the download one: just above the
	// download threshold compressing an upload still loses, while a
	// plausible factor of 3 pays off.
	p := energy.Params11Mbps()
	const s = 4.0
	tc := device.HandheldCompressCost(codec.Gzip).PerInMB * s
	downThresh := p.ThresholdFactor(s)
	if p.ShouldCompressUpload(s, s/(downThresh*1.01), tc) {
		t.Errorf("upload already pays off at the download threshold %.3f", downThresh)
	}
	if !p.ShouldCompressUpload(s, s/3, tc) {
		t.Error("upload threshold implausibly high: factor 3 does not pay off")
	}
}

func TestUploadCompressedModelAgreement(t *testing.T) {
	data := workload.Generate(workload.ClassSource, 2_000_000, 11)
	res := mustUpload(t, UploadSpec{Data: data, Scheme: codec.Gzip, Compressed: true})
	p := energy.Params11Mbps()
	s := float64(res.RawBytes) / 1e6
	sc := float64(res.WireBytes) / 1e6
	tc := res.DecompressSeconds.Seconds()
	want := p.UploadCompressedEnergy(s, sc, tc)
	if rel := math.Abs(res.ExactEnergyJ-want) / want; rel > 0.10 {
		t.Errorf("sim %.4f vs model %.4f (%.1f%%)", res.ExactEnergyJ, want, rel*100)
	}
}
