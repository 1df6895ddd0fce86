package experiment

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/wlan"
)

func TestAblationLevels(t *testing.T) {
	rows, err := Config{Scale: 1.0 / 40}.AblationLevels()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Factor must not decrease materially with level, and level 9 must
	// beat level 1.
	if !(rows[8].Factor > rows[0].Factor) {
		t.Errorf("level 9 factor %.3f should beat level 1 %.3f", rows[8].Factor, rows[0].Factor)
	}
	// Higher factor -> lower modeled energy.
	if !(rows[8].InterleaveJ < rows[0].InterleaveJ) {
		t.Errorf("level 9 energy %.4f should beat level 1 %.4f", rows[8].InterleaveJ, rows[0].InterleaveJ)
	}
	if out := RenderAblationLevels(rows); !strings.Contains(out, "level") {
		t.Error("render missing header")
	}
}

func TestAblationBlockSize(t *testing.T) {
	rows, err := Config{Scale: 1.0 / 40}.AblationBlockSize()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	var best, at128 float64
	best = math.Inf(1)
	for _, r := range rows {
		if r.EnergyJ < best {
			best = r.EnergyJ
		}
		if r.BlockBytes == 128_000 {
			at128 = r.EnergyJ
		}
		// Large blocks legitimately dilute decisions into all-compress;
		// fine-grained ones must split them.
		if r.BlockBytes <= 128_000 && (r.BlocksCompressed == 0 || r.BlocksCompressed == r.BlocksTotal) {
			t.Errorf("block %d: degenerate decisions %d/%d", r.BlockBytes, r.BlocksCompressed, r.BlocksTotal)
		}
	}
	// The paper's 128 kB should be within a few percent of the best point.
	if at128 > best*1.05 {
		t.Errorf("128k energy %.4f vs best %.4f", at128, best)
	}
	if out := RenderAblationBlockSize(rows); !strings.Contains(out, "128000") {
		t.Error("render missing 128k row")
	}
}

func TestAblationMeterRate(t *testing.T) {
	rows, err := Config{}.AblationMeterRate()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Error at >= 300 samples/s must be under 3%; the coarsest rate may
	// be worse than the finest.
	for _, r := range rows {
		if r.SamplesPerSec >= 300 && math.Abs(r.RelError) > 0.03 {
			t.Errorf("rate %.0f: error %.3f", r.SamplesPerSec, r.RelError)
		}
	}
	if out := RenderAblationMeterRate(rows); !strings.Contains(out, "samples/s") {
		t.Error("render missing header")
	}
}

func TestUploadComparisonShape(t *testing.T) {
	cfg := Config{Scale: 1.0 / 40, LargeSubset: 3}
	rows, err := cfg.UploadComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 3 files x 4 strategies
		t.Fatalf("got %d rows", len(rows))
	}
	for i := 0; i < len(rows); i += 4 {
		raw, slow, fast, adaptive := rows[i], rows[i+1], rows[i+2], rows[i+3]
		if raw.Strategy != "raw" || slow.Strategy != "zlib -9" {
			t.Fatalf("row ordering broken: %v %v", raw.Strategy, slow.Strategy)
		}
		// The finding: the fast level must clearly beat the slow level on
		// the handheld, and win against raw on compressible files.
		if fast.EnergyJ >= slow.EnergyJ {
			t.Errorf("%s: zlib -1 (%.4f J) should beat zlib -9 (%.4f J) on the handheld",
				raw.Spec.Name, fast.EnergyJ, slow.EnergyJ)
		}
		// Single-block files cannot overlap compression with sending (the
		// whole file is the lead-in), so only multi-block files must win
		// decisively.
		if raw.Spec.PaperGzip > 5 && raw.Spec.Size > 256_000 && fast.RelEnergy > 0.8 {
			t.Errorf("%s: fast compressed upload rel %.3f, want < 0.8", raw.Spec.Name, fast.RelEnergy)
		}
		if adaptive.RelEnergy > fast.RelEnergy*1.15 {
			t.Errorf("%s: adaptive upload %.3f much worse than fast %.3f",
				raw.Spec.Name, adaptive.RelEnergy, fast.RelEnergy)
		}
	}
	if out := RenderUploadComparison(rows); !strings.Contains(out, "strategy") {
		t.Error("render missing header")
	}
}

func TestMeterProbe(t *testing.T) {
	// A one-second constant read through the full rig + meter path:
	// 1 s at 310 mA, 5 V.
	res, err := pipeline.Drive(energy.RateConfig{}, func(k *sim.Kernel, _ *device.Device, _ *wlan.Link, done func()) {
		k.Schedule(time.Second, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MeteredEnergyJ; math.Abs(got-1.55) > 0.01 {
		t.Errorf("probe %.4f J, want 1.55", got)
	}
}

func TestPolicyComparisonShape(t *testing.T) {
	rows, err := Config{}.PolicyComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows", len(rows))
	}
	on, ps := rows[0], rows[1]
	if !(ps.EnergyJ < on.EnergyJ/2) {
		t.Errorf("hardware PS should at least halve session energy: %.1f vs %.1f", ps.EnergyJ, on.EnergyJ)
	}
	perfect := rows[2]
	if !(perfect.EnergyJ < ps.EnergyJ) {
		t.Errorf("perfect predictive sleep should beat PS: %.1f vs %.1f", perfect.EnergyJ, ps.EnergyJ)
	}
	// Latency grows monotonically as accuracy drops.
	prev := time.Duration(-1)
	for _, r := range rows[2:] {
		if r.AvgExtraLatency < prev {
			t.Errorf("latency not monotone: %v after %v", r.AvgExtraLatency, prev)
		}
		prev = r.AvgExtraLatency
	}
	if out := RenderPolicyComparison(rows); !strings.Contains(out, "predictive-sleep") {
		t.Error("render missing policy rows")
	}
}

func TestBatteryComparisonShape(t *testing.T) {
	rows, err := Config{}.BatteryComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	plain, blind, adaptive := rows[0], rows[1], rows[2]
	if plain.LifeExtension != 1.0 {
		t.Errorf("baseline extension %v", plain.LifeExtension)
	}
	if !(adaptive.Downloads > blind.Downloads && blind.Downloads > plain.Downloads) {
		t.Errorf("downloads ordering broken: %d, %d, %d",
			plain.Downloads, blind.Downloads, adaptive.Downloads)
	}
	if adaptive.LifeExtension < 1.3 {
		t.Errorf("adaptive life gain %.2fx, want > 1.3x", adaptive.LifeExtension)
	}
	if out := RenderBatteryComparison(rows); !strings.Contains(out, "life gain") {
		t.Error("render missing header")
	}
}
