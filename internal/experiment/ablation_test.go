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
