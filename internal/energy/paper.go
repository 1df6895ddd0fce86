package energy

// This file carries the paper's literal Equation 6 constants, which
// selective.PaperDecider and the decider apply. The model in energy.go
// reproduces them from first principles; the paper's other published
// forms are the tests' oracles.

// PaperShouldCompress is the paper's Equation 6 decision test.
func PaperShouldCompress(sBytes, scBytes int) bool {
	s := float64(sBytes) / 1e6
	sc := float64(scBytes) / 1e6
	if sc <= 0 || s <= 0 {
		return false
	}
	f := s / sc
	// Exactly buffer-sized inputs (the selective scheme's 0.128 MB
	// blocks) use the large-file branch: mid-stream blocks do overlap.
	if s >= 0.128 {
		return 1.13/f < 1-0.00157/s
	}
	return 1.30/f < 1-0.00372/s
}

// PaperFileThresholdBytes is the file size below which the paper never
// compresses (Section 4.3).
const PaperFileThresholdBytes = 3900
