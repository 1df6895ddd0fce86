package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMSendAboveM(t *testing.T) {
	p := Params11Mbps()
	if !(p.MSend() > p.M) {
		t.Errorf("send energy per MB (%v) should exceed receive (%v)", p.MSend(), p.M)
	}
	if math.Abs(p.MSend()-2.55)/2.55 > 0.01 {
		t.Errorf("MSend = %v, want ~2.55 J/MB", p.MSend())
	}
}

func TestUploadEnergyLinear(t *testing.T) {
	p := Params11Mbps()
	e1 := p.UploadEnergy(1)
	e2 := p.UploadEnergy(2)
	if math.Abs((e2-p.Cs)-2*(e1-p.Cs)) > 1e-9 {
		t.Errorf("upload energy not linear: %v, %v", e1, e2)
	}
	if p.UploadEnergy(0) != 0 {
		t.Error("zero upload should cost nothing")
	}
}

func TestUploadCompressedBeatsRawAtHighFactor(t *testing.T) {
	p := Params11Mbps()
	s := 2.0
	sc := s / 10
	tc := 0.4 * s // fast compressor
	if !p.ShouldCompressUpload(s, sc, tc) {
		t.Error("factor 10 with a fast compressor should pay off")
	}
	if !(p.UploadCompressedEnergy(s, sc, tc) < p.UploadEnergy(s)) {
		t.Error("energy comparison inconsistent with decision")
	}
}

func TestUploadSlowCompressorLoses(t *testing.T) {
	p := Params11Mbps()
	s := 2.0
	sc := s / 1.2 // marginal factor
	tc := 1.0 * s // slow level-9-style compressor
	if p.ShouldCompressUpload(s, sc, tc) {
		t.Error("marginal factor with a slow compressor should not pay off")
	}
}

func TestUploadThresholdSize(t *testing.T) {
	p := Params11Mbps()
	th := p.UploadThresholdSizeBytes(0.36, 0.0045)
	// The upload side has both the cs floor and the compression lead-in,
	// so its threshold should be at least the download one.
	if th < 3000 {
		t.Errorf("upload threshold %v bytes implausibly low", th)
	}
	if math.IsInf(th, 1) {
		t.Error("threshold should be finite for a fast compressor")
	}
	// An absurdly slow compressor can never pay for itself: decompressing
	// 1 MB of savings costs more than the radio.
	if !math.IsInf(p.UploadThresholdSizeBytes(100, 0.0045), 1) {
		t.Error("100 s/MB compressor should never pay off")
	}
}

func TestQuickUploadDecisionConsistent(t *testing.T) {
	p := Params11Mbps()
	f := func(sRaw, fRaw, cRaw uint16) bool {
		s := 0.05 + float64(sRaw%800)/100
		factor := 1.05 + float64(fRaw%200)/20
		sc := s / factor
		tc := (0.1 + float64(cRaw%100)/100) * s
		should := p.ShouldCompressUpload(s, sc, tc)
		cheaper := p.UploadCompressedEnergy(s, sc, tc) < p.UploadEnergy(s)
		return should == cheaper
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
