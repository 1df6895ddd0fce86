// Package energy implements the paper's analytical energy model for
// compressed downloading over a wireless LAN (Section 4): the download
// energy equation (Eq. 1), sequential compressed downloading (Eq. 2),
// interleaved downloading (Eqs. 3-4), the closed forms of Eq. 5 and the
// compression-decision thresholds of Eq. 6, including the 3900-byte file
// threshold and the sleep-vs-interleave crossover factor.
//
// All sizes are in megabytes and energies in joules, matching the paper's
// units. With the default 11 Mb/s parameters the model reproduces the
// paper's fitted constants exactly:
//
//	E(s)        = 3.519·s + 0.012
//	E_int(s,sc) = 0.2093·s + 3.7283·sc + 0.0172      (s > 0.128 MB)
//	E_int(s,sc) = 0.4589·s + 3.9779·sc + 0.0234      (s ≤ 0.128 MB)
//	compress iff 1.13/F < 1 − 0.00157/s               (s > 0.128 MB)
//	compress iff 1.30/F < 1 − 0.00372/s               (s ≤ 0.128 MB)
//	never compress below ≈ 3900 bytes
package energy

import (
	"fmt"
	"math"
)

// Params are the measured model parameters for one link configuration.
type Params struct {
	// RateMBps is the effective download rate including idle gaps
	// (0.6 MB/s at nominal 11 Mb/s; 0.18 at 2 Mb/s).
	RateMBps float64
	// IdleFrac is the CPU-idle fraction of total downloading time
	// (0.4 at 11 Mb/s, 0.815 at 2 Mb/s).
	IdleFrac float64
	// M is the energy to receive and copy one MB (J/MB); the paper fits
	// m = 2.486 at 11 Mb/s.
	M float64
	// Cs is the communication start-up energy (J); the paper fits 0.012.
	Cs float64
	// Pi is the power during CPU-idle intervals (W); 1.55 W (310 mA) at
	// 11 Mb/s where the radio idles between packets, 2.15 W (430 mA) at
	// 2 Mb/s where the radio stays in receive.
	Pi float64
	// Pd is the average power while decompressing with the radio idle and
	// power saving off: 2.85 W (570 mA).
	Pd float64
	// PdSleep is the decompression power with the radio in power-save
	// idle: 1.70 W (340 mA), the value the paper plugs into Eq. 2 for the
	// sleep-mode comparison.
	PdSleep float64
	// PiSleep is the idle power with power saving on: 0.55 W (110 mA).
	PiSleep float64
	// TdA, TdB, TdC: decompression time td = TdA·s + TdB·sc + TdC
	// (seconds; the paper's Figure 8(a) fit for gzip/zlib).
	TdA, TdB, TdC float64
	// BufMB is the decompression buffer: the first BufMB·sc/s of the
	// compressed stream must arrive before decompression can start
	// (0.128 MB).
	BufMB float64
}

// DownloadTime returns the wall time in seconds to download s MB.
func (p Params) DownloadTime(s float64) float64 {
	if s <= 0 {
		return 0
	}
	return s / p.RateMBps
}

// IdleTime returns ti, the total CPU-idle time (s) while downloading s MB:
// ti = IdleFrac · s / rate (Eq. 4 preamble).
func (p Params) IdleTime(s float64) float64 {
	return p.IdleFrac * p.DownloadTime(s)
}

// IdleSplit returns (ti', ti1) per Eq. 4: ti1 is the idle time while the
// first compressed buffer (BufMB of raw data) arrives, unusable for
// decompression; ti' is the remainder.
func (p Params) IdleSplit(s, sc float64) (tiPrime, ti1 float64) {
	ti := p.IdleTime(sc)
	if s < p.BufMB {
		// Sub-buffer file: all idle time precedes the first (only)
		// decompressable buffer. Exactly buffer-sized inputs — the
		// selective scheme's blocks — count as the large case.
		return 0, ti
	}
	firstChunk := p.BufMB * sc / s // compressed bytes of the first buffer
	ti1 = p.IdleFrac * firstChunk / p.RateMBps
	return ti - ti1, ti1
}

// DownloadEnergy returns Eq. 1: E = m·s + cs + ti·pi, the energy to
// download s MB uncompressed.
func (p Params) DownloadEnergy(s float64) float64 {
	if s <= 0 {
		return 0
	}
	return p.M*s + p.Cs + p.IdleTime(s)*p.Pi
}

// DecompressTime returns td for raw size s and compressed size sc (MB).
func (p Params) DecompressTime(s, sc float64) float64 {
	return p.TdA*s + p.TdB*sc + p.TdC
}

// SleepEnergy returns Eq. 2 with the radio put to power-save sleep during
// the decompression phase (pd = PdSleep), the alternative to interleaving
// discussed in Section 4.2.
func (p Params) SleepEnergy(s, sc float64) float64 {
	tiPrime, ti1 := p.IdleSplit(s, sc)
	return p.M*sc + p.Cs + (tiPrime+ti1)*p.Pi + p.DecompressTime(s, sc)*p.PdSleep
}

// InterleavedEnergy returns Eq. 3: decompression of block i overlaps the
// download of block i+1, reclaiming idle time at power pd instead of pi.
func (p Params) InterleavedEnergy(s, sc float64) float64 {
	tiPrime, ti1 := p.IdleSplit(s, sc)
	td := p.DecompressTime(s, sc)
	if tiPrime > td {
		// Decompression fits in the idle windows.
		return p.M*sc + p.Cs + td*p.Pd + (tiPrime-td+ti1)*p.Pi
	}
	return p.M*sc + p.Cs + td*p.Pd + ti1*p.Pi
}

// Breakdown attributes one transfer's modeled energy to the hardware that
// spends it: RadioJ is receive plus communication start-up energy
// (m·sc + cs), CPUJ is decompression energy (td·pd), and IdleJ is the
// CPU-idle residual (pi·idle time not reclaimed by interleaving). The
// three parts sum exactly to the corresponding whole-transfer equation,
// which is what lets a phase-level trace carry per-phase joules whose
// total equals the model's answer.
type Breakdown struct {
	RadioJ float64
	CPUJ   float64
	IdleJ  float64
}

// Total is the whole-transfer energy, the sum of the three parts.
func (b Breakdown) Total() float64 { return b.RadioJ + b.CPUJ + b.IdleJ }

// InterleavedBreakdown splits Eq. 3 — InterleavedEnergy(s, sc) — into its
// radio, CPU and idle components. The identity
//
//	bd.RadioJ + bd.CPUJ + bd.IdleJ == InterleavedEnergy(s, sc)
//
// holds exactly (same floating-point terms, same order of combination).
func (p Params) InterleavedBreakdown(s, sc float64) Breakdown {
	if s <= 0 || sc <= 0 {
		return Breakdown{}
	}
	tiPrime, ti1 := p.IdleSplit(s, sc)
	td := p.DecompressTime(s, sc)
	bd := Breakdown{RadioJ: p.M*sc + p.Cs, CPUJ: td * p.Pd}
	if tiPrime > td {
		bd.IdleJ = (tiPrime - td + ti1) * p.Pi
	} else {
		bd.IdleJ = ti1 * p.Pi
	}
	return bd
}

// DownloadBreakdown splits Eq. 1 — DownloadEnergy(s) — the same way; an
// uncompressed transfer has no CPU component.
func (p Params) DownloadBreakdown(s float64) Breakdown {
	if s <= 0 {
		return Breakdown{}
	}
	return Breakdown{RadioJ: p.M*s + p.Cs, IdleJ: p.IdleTime(s) * p.Pi}
}

// TransferBreakdown charges one finished transfer from its byte counts —
// the one rule every consumer (client spans and events, the soak harness,
// hhfetch, the examples) applies: Eq. 3 when compressed blocks crossed the
// wire, Eq. 1 otherwise. A selective fetch whose blocks all went raw is
// an uncompressed download, whatever mode was requested.
func (p Params) TransferBreakdown(rawBytes, wireBytes, blocksCompressed int) Breakdown {
	s := float64(rawBytes) / 1e6
	if blocksCompressed > 0 {
		return p.InterleavedBreakdown(s, float64(wireBytes)/1e6)
	}
	return p.DownloadBreakdown(s)
}

// InterleavedTime returns the wall time of an interleaved compressed
// download: the transfer time plus any decompression overhang beyond the
// usable idle windows.
func (p Params) InterleavedTime(s, sc float64) float64 {
	tiPrime, _ := p.IdleSplit(s, sc)
	td := p.DecompressTime(s, sc)
	t := p.DownloadTime(sc)
	if td > tiPrime {
		t += td - tiPrime
	}
	return t
}

// ShouldCompress reports whether compressing is predicted to save energy
// (Eq. 6): interleaved compressed download vs plain download.
func (p Params) ShouldCompress(s, sc float64) bool {
	if s <= 0 || sc <= 0 {
		return false
	}
	return p.InterleavedEnergy(s, sc) < p.DownloadEnergy(s)
}

// ThresholdFactor returns the minimum compression factor at which
// compression saves energy for a file of s MB (∞ if no factor suffices).
func (p Params) ThresholdFactor(s float64) float64 {
	if s <= 0 {
		return math.Inf(1)
	}
	// E_int is monotone in sc; bisect on sc in (0, s].
	if !p.ShouldCompress(s, s*1e-9) {
		return math.Inf(1)
	}
	lo, hi := s*1e-9, s
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if p.ShouldCompress(s, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return s / lo
}

// ThresholdSizeBytes returns the file size below which compression can
// never save energy, however high the factor — the paper derives 3900
// bytes. It is found by bisecting on s with sc → 0.
func (p Params) ThresholdSizeBytes() float64 {
	eps := 1e-9
	lo, hi := 1e-9, 10.0 // MB
	if p.ShouldCompress(lo, lo*eps) {
		return 0
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if p.ShouldCompress(mid, mid*eps) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi * 1e6
}

// SleepCrossoverFactor returns the compression factor above which putting
// the radio to sleep during (non-interleaved) decompression beats
// interleaving — the paper derives ≈ 4.6 at 11 Mb/s. It is computed for a
// representative large file and is insensitive to s.
func (p Params) SleepCrossoverFactor() float64 {
	const s = 4.0 // MB, large file
	lo, hi := 1.0, 1000.0
	// SleepEnergy - InterleavedEnergy decreases as F grows (sc shrinks):
	// sleep saves more decompression power while interleave reclaims less
	// idle. Find the sign change.
	diff := func(f float64) float64 {
		sc := s / f
		return p.SleepEnergy(s, sc) - p.InterleavedEnergy(s, sc)
	}
	if diff(lo) < 0 {
		return lo
	}
	if diff(hi) > 0 {
		return math.Inf(1)
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if diff(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// FillIdleFactor returns the compression factor needed for decompression
// work to completely fill the idle time (td >= ti'); the paper derives
// ≈ 27 at 2 Mb/s. Computed for a representative large file.
func (p Params) FillIdleFactor() float64 {
	const s = 4.0
	lo, hi := 1.0001, 100000.0
	diff := func(f float64) float64 {
		sc := s / f
		tiPrime, _ := p.IdleSplit(s, sc)
		return p.DecompressTime(s, sc) - tiPrime
	}
	if diff(lo) >= 0 {
		return lo
	}
	if diff(hi) < 0 {
		return math.Inf(1)
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if diff(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// String summarises the parameter set.
func (p Params) String() string {
	return fmt.Sprintf("rate=%.2fMB/s idle=%.1f%% m=%.3fJ/MB cs=%.3fJ pi=%.2fW pd=%.2fW",
		p.RateMBps, p.IdleFrac*100, p.M, p.Cs, p.Pi, p.Pd)
}
