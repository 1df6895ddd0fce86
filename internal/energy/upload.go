package energy

import "math"

// Upload-direction model — the trade-off the paper's introduction raises
// for "lively captured voice and pictures" and leaves to further study
// (Section 7). The structure mirrors Equations 1-4 with the roles
// reversed: the handheld pays CPU energy to *compress* before sending, and
// the radio saving comes from transmitting fewer bytes. Transmit draws
// slightly more than receive (send composite 510 mA vs 497.2 mA), so the
// per-MB send energy is MSend = M * 510/497.2 ≈ 2.55 J/MB at 11 Mb/s.

// sendRatio is the send/receive composite current ratio.
const sendRatio = 510.0 / 497.2

// MSend returns the energy to transmit one MB (J/MB).
func (p Params) MSend() float64 { return p.M * sendRatio }

// UploadEnergy is the uncompressed-upload mirror of Eq. 1:
// E = msend·s + cs + ti·pi.
func (p Params) UploadEnergy(s float64) float64 {
	if s <= 0 {
		return 0
	}
	return p.MSend()*s + p.Cs + p.IdleTime(s)*p.Pi
}

// UploadCompressedEnergy mirrors Eq. 3 for the upload direction: the
// handheld compresses block i+1 (tc seconds of CPU work in total) while
// transmitting block i. tc comes from the handheld compression cost model
// (device.HandheldCompressCost), not the fitted decompression line.
func (p Params) UploadCompressedEnergy(s, sc, tc float64) float64 {
	tiPrime, ti1 := p.IdleSplit(s, sc)
	if tiPrime > tc {
		return p.MSend()*sc + p.Cs + tc*p.Pd + (tiPrime-tc+ti1)*p.Pi
	}
	return p.MSend()*sc + p.Cs + tc*p.Pd + ti1*p.Pi
}

// ShouldCompressUpload reports whether compressing before uploading is
// predicted to save energy.
func (p Params) ShouldCompressUpload(s, sc, tc float64) bool {
	if s <= 0 || sc <= 0 {
		return false
	}
	return p.UploadCompressedEnergy(s, sc, tc) < p.UploadEnergy(s)
}

// UploadThresholdSizeBytes returns the upload size below which
// compression can never pay off (sc -> 0), for a handheld compression
// cost of tcPerInMB seconds per raw MB plus a fixed tcFixed seconds of
// per-stream setup (the term that creates the small-file floor, as TdC
// does on the download side).
func (p Params) UploadThresholdSizeBytes(tcPerInMB, tcFixed float64) float64 {
	should := func(s float64) bool {
		return p.ShouldCompressUpload(s, s*1e-9, tcPerInMB*s+tcFixed)
	}
	lo, hi := 1e-9, 10.0
	if should(lo) {
		return 0
	}
	if !should(hi) {
		return math.Inf(1)
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if should(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi * 1e6
}
