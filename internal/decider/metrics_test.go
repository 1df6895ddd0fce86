package decider

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/selective"
	"repro/internal/workload"
)

// TestMetricsCountersTrackDecisions drives one decision down each
// counted path — compress, raw, deadline-constrained, over-budget — and
// checks the decider_* counters land exactly where the decisions did.
func TestMetricsCountersTrackDecisions(t *testing.T) {
	reg := obs.NewRegistry()
	base := energy.Params11Mbps()
	base.M = 12 // hot receive copy: compression pays but is slower than raw
	d := New(Config{Base: base, Calibrated: true})
	d.BindMetrics(reg)

	ctx := BlockContext{RawLen: 6000, CompLen: 3000, RateMBps: 0.6}
	if !d.Decide(ctx).Compress {
		t.Fatal("premise: unconstrained hot-copy block must compress")
	}
	ctx.Class = ClassStrict
	if dec := d.Decide(ctx); dec.Compress || !dec.Constrained {
		t.Fatalf("premise: strict class must veto the slower compressed option: %+v", dec)
	}
	ctx.Class = ClassNone
	ctx.BudgetJ, ctx.SpentJ = 1e-9, 1
	if !d.Decide(ctx).OverBudget {
		t.Fatal("premise: an exhausted budget must flag OverBudget")
	}

	for name, want := range map[string]int64{
		"decider_decisions_total":            3,
		"decider_compress_total":             2,
		"decider_raw_total":                  1,
		"decider_deadline_constrained_total": 1,
		"decider_over_budget_total":          1,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	// A nil registry is a no-op bind: the existing counters keep working.
	d.BindMetrics(nil)
	ctx.BudgetJ, ctx.SpentJ = 0, 0
	d.Decide(ctx)
	if got := reg.Counter("decider_decisions_total", "").Value(); got != 4 {
		t.Errorf("decisions after nil rebind = %d, want 4", got)
	}
}

// TestBindQueueDepthRespectsPinnedHook: the first bound hook wins, and a
// constructor-pinned hook (the harness's determinism pin) survives the
// proxy's later bind attempt. Negative depths clamp to zero.
func TestBindQueueDepthRespectsPinnedHook(t *testing.T) {
	d := New(Config{})
	if got := d.liveQueue(); got != 0 {
		t.Fatalf("nil hook: liveQueue = %d, want 0", got)
	}
	d.BindQueueDepth(func() int { return 7 })
	if got := d.liveQueue(); got != 7 {
		t.Fatalf("bound hook: liveQueue = %d, want 7", got)
	}
	d.BindQueueDepth(func() int { return 99 })
	if got := d.liveQueue(); got != 7 {
		t.Fatalf("second bind must not override the first: liveQueue = %d, want 7", got)
	}

	pinned := New(Config{Queue: func() int { return -3 }})
	pinned.BindQueueDepth(func() int { return 42 })
	if got := pinned.liveQueue(); got != 0 {
		t.Fatalf("pinned negative hook: liveQueue = %d, want 0 (clamped, not rebound)", got)
	}
}

// TestProbeCountsOneDecisionPerBlock: the selective encoder asks the
// dynamic decider about a block's probe bound before compressing it, and
// then about its real size. Through the decider_* counters each block is
// one decision: a block the probe refuses is counted once, as raw, and a
// block it passes is counted once, on its real size, not again for the
// probe.
func TestProbeCountsOneDecisionPerBlock(t *testing.T) {
	reg := obs.NewRegistry()
	d := New(Config{})
	d.BindMetrics(reg)
	// The bench's mixed file: four random blocks among text ones.
	enc, err := selective.Encode(workload.MixedFile(1<<20, 2003), codec.MustNew(codec.Gzip, 0), d)
	if err != nil {
		t.Fatal(err)
	}
	var probed, raw, compressed int64
	for _, b := range enc.Blocks {
		switch {
		case b.Probed:
			probed++
			raw++
		case b.Compressed:
			compressed++
		default:
			raw++
		}
	}
	if probed == 0 || compressed == 0 {
		t.Fatalf("premise: want blocks both probed raw and compressed, got %d and %d of %d", probed, compressed, len(enc.Blocks))
	}
	for name, want := range map[string]int64{
		"decider_decisions_total": int64(len(enc.Blocks)),
		"decider_compress_total":  compressed,
		"decider_raw_total":       raw,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d (%d blocks, %d probed raw)", name, got, want, len(enc.Blocks), probed)
		}
	}

	// The probe's question, asked directly, counts only a refusal, and
	// answers as ShouldCompress does.
	before := reg.Counter("decider_decisions_total", "").Value()
	if !d.MayCompress(selective.BlockSize, 1) {
		t.Fatal("a block compressed to one byte must be worth compressing")
	}
	if d.MayCompress(selective.BlockSize, selective.BlockSize) {
		t.Fatal("a block that does not shrink must not be worth compressing")
	}
	if got := reg.Counter("decider_decisions_total", "").Value() - before; got != 1 {
		t.Errorf("a pass and a refusal counted %d decisions, want the refusal's 1", got)
	}
}
