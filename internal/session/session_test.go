package session

import (
	"testing"
	"time"

	"repro/internal/energy"
)

func webSpec(policy Policy, accuracy float64) Spec {
	return Spec{
		Requests:        WebSession(20, 3*time.Second, 100_000, 7),
		Policy:          policy,
		PredictAccuracy: accuracy,
		Seed:            11,
	}
}

func TestPolicyEnergyOrdering(t *testing.T) {
	on, err := Run(webSpec(AlwaysOn, 0))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Run(webSpec(HardwarePS, 0))
	if err != nil {
		t.Fatal(err)
	}
	sleep, err := Run(webSpec(PredictiveSleep, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	// With long think times, idle dominates: sleep < PS < always-on.
	if !(sleep.EnergyJ < ps.EnergyJ && ps.EnergyJ < on.EnergyJ) {
		t.Errorf("energy ordering broken: sleep %.2f, ps %.2f, on %.2f",
			sleep.EnergyJ, ps.EnergyJ, on.EnergyJ)
	}
	// Idle energy components reflect the idle currents 90 < 110 < 310.
	if !(sleep.IdleEnergyJ < ps.IdleEnergyJ && ps.IdleEnergyJ < on.IdleEnergyJ) {
		t.Errorf("idle energy ordering broken: %.2f %.2f %.2f",
			sleep.IdleEnergyJ, ps.IdleEnergyJ, on.IdleEnergyJ)
	}
}

func TestAlwaysOnZeroLatency(t *testing.T) {
	on, err := Run(webSpec(AlwaysOn, 0))
	if err != nil {
		t.Fatal(err)
	}
	if on.AvgExtraLatency != 0 || on.Mispredictions != 0 {
		t.Errorf("always-on added latency: %+v", on)
	}
}

func TestPredictiveLatencyGrowsWithInaccuracy(t *testing.T) {
	perfect, err := Run(webSpec(PredictiveSleep, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	half, err := Run(webSpec(PredictiveSleep, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	awful, err := Run(webSpec(PredictiveSleep, 0.0))
	if err != nil {
		t.Fatal(err)
	}
	if perfect.Mispredictions != 0 {
		t.Errorf("perfect predictor mispredicted %d times", perfect.Mispredictions)
	}
	if !(half.Mispredictions > 0 && awful.Mispredictions > half.Mispredictions) {
		t.Errorf("mispredictions: half %d, awful %d", half.Mispredictions, awful.Mispredictions)
	}
	if awful.Mispredictions != 20 {
		t.Errorf("0%% accuracy should mispredict every request, got %d", awful.Mispredictions)
	}
	if !(awful.AvgExtraLatency > half.AvgExtraLatency && half.AvgExtraLatency > 0) {
		t.Errorf("latency: half %v, awful %v", half.AvgExtraLatency, awful.AvgExtraLatency)
	}
	if awful.AvgExtraLatency != WakeLatency {
		t.Errorf("avg extra latency %v, want %v", awful.AvgExtraLatency, WakeLatency)
	}
}

func TestHardwarePSTransferPenalty(t *testing.T) {
	// A session dominated by transfer time (tiny gaps, big files): PS must
	// be slower in wall time than always-on.
	reqs := []Request{{Gap: time.Millisecond, Bytes: 2_000_000}}
	on, err := Run(Spec{Requests: reqs, Policy: AlwaysOn})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Run(Spec{Requests: reqs, Policy: HardwarePS})
	if err != nil {
		t.Fatal(err)
	}
	if !(ps.TotalSeconds > on.TotalSeconds*1.2) {
		t.Errorf("PS transfer penalty missing: %.3f vs %.3f s", ps.TotalSeconds, on.TotalSeconds)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, err := Run(webSpec(PredictiveSleep, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(webSpec(PredictiveSleep, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	if a.EnergyJ != b.EnergyJ || a.Mispredictions != b.Mispredictions {
		t.Errorf("session not deterministic: %+v vs %+v", a, b)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := Run(Spec{Requests: []Request{{Gap: time.Second, Bytes: 100}}}); err == nil {
		t.Error("missing policy accepted")
	}
}

func TestWebSessionShape(t *testing.T) {
	reqs := WebSession(50, 2*time.Second, 80_000, 3)
	if len(reqs) != 50 {
		t.Fatalf("got %d requests", len(reqs))
	}
	for i, r := range reqs {
		if r.Gap <= 0 || r.Bytes < 1000 {
			t.Fatalf("request %d malformed: %+v", i, r)
		}
	}
	// Deterministic.
	again := WebSession(50, 2*time.Second, 80_000, 3)
	for i := range reqs {
		if reqs[i] != again[i] {
			t.Fatal("WebSession not deterministic")
		}
	}
}

func TestCustomRate(t *testing.T) {
	res, err := Run(Spec{
		Requests: []Request{{Gap: time.Second, Bytes: 180_000}},
		Policy:   AlwaysOn,
		Rate:     energy.Rate2Mbps(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// 180 kB at 0.18 MB/s ~ 1 s transfer + 1 s gap.
	if res.TotalSeconds < 1.8 || res.TotalSeconds > 2.3 {
		t.Errorf("total %.3f s", res.TotalSeconds)
	}
}
