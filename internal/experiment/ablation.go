package experiment

import (
	"fmt"
	"strings"

	"repro/internal/codec"
	"repro/internal/energy"
	"repro/internal/pipeline"
	"repro/internal/selective"
	"repro/internal/workload"
)

// Ablation studies for the design choices DESIGN.md calls out: the gzip
// effort level the paper fixes at 9, the 0.128 MB block size of the
// selective scheme, and the multimeter sampling rate.

// LevelRow is one compression-level data point.
type LevelRow struct {
	Level       int
	Factor      float64
	InterleaveJ float64 // modeled interleaved download energy
}

// AblationLevels sweeps gzip levels 1-9 on representative text: the paper
// notes "a high compression factor does not increase the decompression
// speed and energy much", so level 9 is almost free energy — this study
// quantifies it. (Compression throughput is host wall-clock, which this
// deterministic world has none of; bench/'s codec probes measure it.)
func (c Config) AblationLevels() ([]LevelRow, error) {
	data := workload.Generate(workload.ClassSource, int(2_000_000*c.scale()*8)+200_000, 13)
	model := energy.Params11Mbps()
	s := float64(len(data)) / 1e6
	rows := make([]LevelRow, 0, 9)
	for level := 1; level <= 9; level++ {
		cdc, err := codec.New(codec.Gzip, level)
		if err != nil {
			return nil, err
		}
		comp, err := cdc.Compress(data)
		if err != nil {
			return nil, err
		}
		rows = append(rows, LevelRow{
			Level:       level,
			Factor:      codec.Factor(len(data), len(comp)),
			InterleaveJ: model.InterleavedEnergy(s, float64(len(comp))/1e6),
		})
	}
	return rows, nil
}

// RenderAblationLevels formats the level sweep.
func RenderAblationLevels(rows []LevelRow) string {
	var b strings.Builder
	b.WriteString("Ablation: gzip compression level (text workload)\n")
	b.WriteString(header(
		fmt.Sprintf("%-8s", "level"),
		fmt.Sprintf("%10s", "factor"),
		fmt.Sprintf("%16s", "download J"),
	))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d%10.3f%16.4f\n", r.Level, r.Factor, r.InterleaveJ)
	}
	return b.String()
}

// BlockSizeRow is one selective-block-size data point on mixed content.
type BlockSizeRow struct {
	BlockBytes       int
	WireBytes        int
	Factor           float64
	BlocksCompressed int
	BlocksTotal      int
	EnergyJ          float64 // modeled interleaved energy of the container
}

// AblationBlockSize sweeps the selective scheme's block size on a mixed
// tar-like file. Small blocks track content boundaries tightly but pay
// per-block compression restarts; large blocks dilute the per-block
// decision — 128 kB is the paper's compromise.
func (c Config) AblationBlockSize() ([]BlockSizeRow, error) {
	data := workload.MixedFile(int(2_048_000*c.scale()*8)+512_000, 21)
	cdc, err := codec.New(codec.Zlib, 9)
	if err != nil {
		return nil, err
	}
	model := energy.Params11Mbps()
	s := float64(len(data)) / 1e6
	var rows []BlockSizeRow
	for _, bs := range []int{16_000, 32_000, 64_000, 128_000, 256_000, 512_000} {
		enc, err := selective.EncodeBlocks(data, cdc, selective.PaperDecider{}, bs)
		if err != nil {
			return nil, err
		}
		st := enc.Stats()
		rows = append(rows, BlockSizeRow{
			BlockBytes:       bs,
			WireBytes:        st.WireBytes,
			Factor:           st.Factor,
			BlocksCompressed: st.BlocksCompressed,
			BlocksTotal:      st.BlocksTotal,
			EnergyJ:          model.InterleavedEnergy(s, float64(st.WireBytes)/1e6),
		})
	}
	return rows, nil
}

// RenderAblationBlockSize formats the block-size sweep.
func RenderAblationBlockSize(rows []BlockSizeRow) string {
	var b strings.Builder
	b.WriteString("Ablation: selective-scheme block size (mixed tar-like file)\n")
	b.WriteString(header(
		fmt.Sprintf("%-12s", "block"),
		fmt.Sprintf("%12s", "wire"),
		fmt.Sprintf("%10s", "factor"),
		fmt.Sprintf("%14s", "compressed"),
		fmt.Sprintf("%12s", "energy J"),
	))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12d%12d%10.3f%8d/%-5d%12.4f\n",
			r.BlockBytes, r.WireBytes, r.Factor, r.BlocksCompressed, r.BlocksTotal, r.EnergyJ)
	}
	return b.String()
}

// MeterRateRow is one sampling-rate data point.
type MeterRateRow struct {
	SamplesPerSec float64
	Samples       int
	SampledJ      float64
	ExactJ        float64
	RelError      float64
}

// AblationMeterRate sweeps the multimeter sampling rate over a bursty
// interleaved download: the paper's instrument took "several hundred
// samples per second"; this shows how the reading converges.
func (c Config) AblationMeterRate() ([]MeterRateRow, error) {
	data := workload.Generate(workload.ClassSource, 800_000, 23)
	var rows []MeterRateRow
	for _, rate := range []float64{20, 50, 100, 300, 1000, 3000} {
		res, err := pipeline.Run(pipeline.Spec{
			Data: data, Scheme: codec.Gzip, Mode: pipeline.ModeInterleaved,
			MeterRate: rate,
		})
		if err != nil {
			return nil, err
		}
		rel := 0.0
		if res.ExactEnergyJ != 0 {
			rel = (res.MeteredEnergyJ - res.ExactEnergyJ) / res.ExactEnergyJ
		}
		rows = append(rows, MeterRateRow{
			SamplesPerSec: rate,
			SampledJ:      res.MeteredEnergyJ,
			ExactJ:        res.ExactEnergyJ,
			RelError:      rel,
		})
	}
	return rows, nil
}

// RenderAblationMeterRate formats the sampling-rate sweep.
func RenderAblationMeterRate(rows []MeterRateRow) string {
	var b strings.Builder
	b.WriteString("Ablation: multimeter sampling rate (interleaved gzip download)\n")
	b.WriteString(header(
		fmt.Sprintf("%-12s", "samples/s"),
		fmt.Sprintf("%12s", "sampled J"),
		fmt.Sprintf("%12s", "exact J"),
		fmt.Sprintf("%10s", "error"),
	))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12.0f%12.4f%12.4f%10s\n", r.SamplesPerSec, r.SampledJ, r.ExactJ, pct(r.RelError))
	}
	return b.String()
}
