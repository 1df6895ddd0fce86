package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/pipeline"
	"repro/internal/selective"
	"repro/internal/session"
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

// PolicyRow is one idle-management policy outcome (Section 2's sleep-mode
// discussion, quantified).
type PolicyRow struct {
	Policy          session.Policy
	Accuracy        float64
	EnergyJ         float64
	IdleEnergyJ     float64
	AvgExtraLatency time.Duration
	Mispredictions  int
}

// PolicyComparison runs a browse-like session under always-on, hardware
// power saving, and predictive sleep at several prediction accuracies.
func (c Config) PolicyComparison() ([]PolicyRow, error) {
	reqs := session.WebSession(30, 4*time.Second, 120_000, 17)
	var rows []PolicyRow
	for _, p := range []struct {
		policy   session.Policy
		accuracy float64
	}{
		{session.AlwaysOn, 0}, {session.HardwarePS, 0},
		{session.PredictiveSleep, 1.0}, {session.PredictiveSleep, 0.9}, {session.PredictiveSleep, 0.7},
		{session.PredictiveSleep, 0.5}, {session.PredictiveSleep, 0.0},
	} {
		res, err := session.Run(session.Spec{
			Requests: reqs, Policy: p.policy, PredictAccuracy: p.accuracy, Seed: 23,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, PolicyRow{
			Policy: p.policy, Accuracy: p.accuracy,
			EnergyJ: res.EnergyJ, IdleEnergyJ: res.IdleEnergyJ,
			AvgExtraLatency: res.AvgExtraLatency, Mispredictions: res.Mispredictions,
		})
	}
	return rows, nil
}

// RenderPolicyComparison formats the policy study.
func RenderPolicyComparison(rows []PolicyRow) string {
	var b strings.Builder
	b.WriteString("Radio idle-management policies (Section 2 discussion, 30-request browse session)\n")
	b.WriteString(header(
		fmt.Sprintf("%-18s", "policy"),
		fmt.Sprintf("%10s", "accuracy"),
		fmt.Sprintf("%12s", "energy J"),
		fmt.Sprintf("%12s", "idle J"),
		fmt.Sprintf("%14s", "avg latency"),
		fmt.Sprintf("%8s", "misses"),
	))
	for _, r := range rows {
		acc := "-"
		if r.Policy == session.PredictiveSleep {
			acc = fmt.Sprintf("%.0f%%", r.Accuracy*100)
		}
		fmt.Fprintf(&b, "%-18v%10s%12.3f%12.3f%14s%8d\n",
			r.Policy, acc, r.EnergyJ, r.IdleEnergyJ, r.AvgExtraLatency, r.Mispredictions)
	}
	return b.String()
}

// BatteryRow is one strategy's downloads-per-charge figure.
type BatteryRow struct {
	Strategy      string
	PerDownloadJ  float64
	Downloads     int
	LifeExtension float64 // vs the uncompressed baseline
}

// BatteryComparison converts the headline experiment into the paper's
// motivating quantity: how many downloads of a representative page mix
// one iPAQ battery charge sustains under each strategy.
func (c Config) BatteryComparison() ([]BatteryRow, error) {
	// Representative mix: one XML page, one binary, one media file,
	// 400 kB total (scaled).
	var mix [][]byte
	for _, name := range []string{"nes96.xml", "pegwit", "image01.jpg"} {
		spec, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("corpus file %s missing", name)
		}
		mix = append(mix, spec.ScaledTo(0.05, 0).Generate())
	}
	battery := device.IPAQBattery()

	var rows []BatteryRow
	var baseJ float64 // the first strategy's cost: the uncompressed baseline
	for _, st := range []struct {
		name string
		spec pipeline.Spec
	}{
		{"uncompressed", pipeline.Spec{Mode: pipeline.ModePlain}},
		{"gzip blind", pipeline.Spec{Scheme: codec.Gzip, Mode: pipeline.ModeInterleaved}},
		{"zlib adaptive", pipeline.Spec{Scheme: codec.Zlib, Mode: pipeline.ModeInterleaved, Selective: true}},
	} {
		var total float64
		for _, data := range mix {
			st.spec.Data = data
			res, err := c.runSpec(st.spec)
			if err != nil {
				return nil, err
			}
			total += res.ExactEnergyJ
		}
		if len(rows) == 0 {
			baseJ = total
		}
		rows = append(rows, BatteryRow{
			Strategy:      st.name,
			PerDownloadJ:  total,
			Downloads:     battery.Operations(total),
			LifeExtension: battery.LifeExtension(baseJ, total),
		})
	}
	return rows, nil
}

// RenderBatteryComparison formats the battery study.
func RenderBatteryComparison(rows []BatteryRow) string {
	var b strings.Builder
	b.WriteString("Battery life (iPAQ 1500 mAh pack, 3-file page mix per 'download')\n")
	b.WriteString(header(
		fmt.Sprintf("%-16s", "strategy"),
		fmt.Sprintf("%14s", "J/download"),
		fmt.Sprintf("%14s", "downloads"),
		fmt.Sprintf("%12s", "life gain"),
	))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s%14.3f%14d%11.2fx\n", r.Strategy, r.PerDownloadJ, r.Downloads, r.LifeExtension)
	}
	return b.String()
}
