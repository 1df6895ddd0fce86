// Package decider implements the dynamic, queue-aware compression
// decision the ROADMAP's open decider item calls for: instead of the
// paper's static Equation 6 test against hardcoded Table 1 constants, a
// DynamicDecider re-evaluates the energy model per block against live
// state — the current effective link rate and power-save flag, the
// server's compression-queue depth, and a per-client deadline class —
// using calibrated coefficients when a fleet calibration (internal/calib)
// is loaded and the static Table 1 set otherwise.
//
// The decision rule is chosen so two properties hold by construction on
// every block, for every link state (the property suite sweeps them):
//
//  1. Dominance: the dynamic choice never costs more modeled joules than
//     the static Eq. 6 choice, because the static choice is always in
//     the candidate set and both are scored with the same live model.
//  2. Deadline safety: the dynamic choice never violates a deadline the
//     static choice met. The deadline for a block is slack·rawT (raw
//     transfer time times the class's slack factor, slack ≥ 1), so the
//     raw option is always deadline-feasible; the compressed option is
//     admitted when it meets the deadline — or unconditionally when the
//     static choice itself busts the deadline, in which case energy wins
//     (property 2 is vacuous there and property 1 must still hold).
//
// The per-client energy budget is advisory telemetry only: letting it
// flip a decision would break dominance, so it surfaces as
// Decision.OverBudget and a decider_over_budget_total counter, never as
// a different choice.
package decider

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/selective"
)

// Class is a deadline class: how much latency slack, relative to sending
// the block uncompressed, a client grants the decider to spend on
// compression wins. The zero value imposes no deadline.
type Class uint8

const (
	// ClassNone imposes no latency constraint: pure energy minimization.
	ClassNone Class = 0
	// ClassRelaxed allows 4x the raw transfer time (background syncs).
	ClassRelaxed Class = 1
	// ClassStandard allows 1.5x the raw transfer time (interactive).
	ClassStandard Class = 2
	// ClassStrict allows exactly the raw transfer time: compression is
	// admitted only when it is latency-free relative to sending the
	// block uncompressed (streaming-adjacent traffic).
	ClassStrict Class = 3
)

// Slack returns the class's deadline as a multiple of the raw transfer
// time; +Inf means unconstrained. Unknown classes read as ClassNone so a
// hostile or garbled wire byte can never panic or tighten a deadline.
func (c Class) Slack() float64 {
	switch c {
	case ClassRelaxed:
		return 4.0
	case ClassStandard:
		return 1.5
	case ClassStrict:
		return 1.0
	default:
		return math.Inf(1)
	}
}

// String names the class as the scenario grammar spells it.
func (c Class) String() string {
	switch c {
	case ClassRelaxed:
		return "relaxed"
	case ClassStandard:
		return "standard"
	case ClassStrict:
		return "strict"
	default:
		return "none"
	}
}

// ParseClass maps a grammar token to its class.
func ParseClass(s string) (Class, bool) {
	switch s {
	case "", "none":
		return ClassNone, true
	case "relaxed":
		return ClassRelaxed, true
	case "standard":
		return ClassStandard, true
	case "strict":
		return ClassStrict, true
	}
	return ClassNone, false
}

// ClassFromByte folds an arbitrary wire byte into a valid class; unknown
// values read as ClassNone (no constraint) rather than an error, so the
// request path stays total.
func ClassFromByte(b byte) Class {
	if c := Class(b); c <= ClassStrict {
		return c
	}
	return ClassNone
}

// BlockContext is everything one block decision may observe.
type BlockContext struct {
	// RawLen and CompLen are the block's uncompressed and compressed
	// sizes in bytes. Non-positive values read as zero.
	RawLen, CompLen int
	// RateMBps is the current effective link rate in MB/s; zero, negative
	// or non-finite values fall back to the decider's base rate.
	RateMBps float64
	// PowerSave reports 802.11 power-save mode: the effective rate drops
	// by wlan.PowerSavePenalty and the idle radio draw falls to the
	// sleep-mode current.
	PowerSave bool
	// QueueDepth is the server compression queue length (builds waiting
	// for or holding a worker slot); each queued build delays the
	// compressed option and burns idle energy while the client waits.
	QueueDepth int
	// Class is the deadline class constraining this block.
	Class Class
	// BudgetJ and SpentJ are the client's advisory energy budget and the
	// joules it has already spent; they flag Decision.OverBudget and
	// never alter the choice.
	BudgetJ, SpentJ float64
}

// Decision is the outcome of one block decision, with the modeled
// numbers that produced it (the property suite and the differential soak
// oracle both re-score streams with these exact quantities).
type Decision struct {
	// Compress is the choice.
	Compress bool
	// EnergyJ and LatencyS are the modeled joules and seconds of the
	// chosen option; AltEnergyJ is the rejected option's joules.
	EnergyJ, LatencyS, AltEnergyJ float64
	// DeadlineS is the applied deadline in seconds (+Inf when the class
	// imposes none).
	DeadlineS float64
	// Constrained reports that the deadline excluded the pure energy
	// minimum (the decider wanted to compress but could not).
	Constrained bool
	// StaticCompress is the static Eq. 6 choice for the same block — the
	// baseline both properties are stated against.
	StaticCompress bool
	// OverBudget flags that the chosen option pushes the client past its
	// advisory energy budget.
	OverBudget bool
}

// Config assembles a DynamicDecider.
type Config struct {
	// Base is the parameter set decisions start from: a calibrated fit
	// via ParamsFromFit, or the static Table 1 set. The zero value reads
	// as energy.Params11Mbps().
	Base energy.Params
	// Calibrated records whether Base came from a fleet calibration; it
	// is part of the fingerprint so calibrated and static artifacts
	// never alias.
	Calibrated bool
	// Link reports the current effective link rate (MB/s) and power-save
	// flag; nil pins decisions to Base's rate with power-save off.
	Link func() (rateMBps float64, powerSave bool)
	// Queue reports the server compression-queue depth; nil reads zero.
	// The proxy binds its worker-pool gauge here (BindQueueDepth) unless
	// the constructor installed an explicit hook — the harness pins a
	// zero hook so canonical traces stay schedule-independent.
	Queue func() int
	// Class is the default deadline class for blocks whose context does
	// not carry one.
	Class Class
	// BudgetJ is the default advisory energy budget (0 = unlimited).
	BudgetJ float64
	// ServerMBps is the server's compression service rate used to model
	// queue wait; zero reads as the measured ~16 MB/s pooled-encoder
	// rate.
	ServerMBps float64
	// Metrics, when set, binds the decider_* counters immediately.
	Metrics *obs.Registry
}

// defaultServerMBps is the pooled gzip encoder's measured service rate
// (17.6–18.3 MB/s on the reference runner; see ROADMAP "compression
// plane"), rounded down so queue-wait estimates err pessimistic.
const defaultServerMBps = 16.0

// DynamicDecider chooses compress-or-raw per block to minimize modeled
// joules subject to the deadline class, never doing worse than the
// static Eq. 6 decider under the same model. It implements
// selective.Decider, so it drops into every selective-mode encode path.
type DynamicDecider struct {
	base       energy.Params
	calibrated bool
	link       func() (float64, bool)
	queue      func() int
	class      Class
	budgetJ    float64
	serverMBps float64

	m *counters

	// thresholds caches MinSizeBytes bisections per observed link state.
	mu         sync.Mutex
	thresholds map[thresholdKey]int
}

type thresholdKey struct {
	rate float64
	ps   bool
}

// counters is the decider_* metrics surface, bound at most once.
type counters struct {
	decisions   *obs.Counter
	compress    *obs.Counter
	raw         *obs.Counter
	constrained *obs.Counter
	overBudget  *obs.Counter
}

// New builds a DynamicDecider. The zero Config is valid: static Table 1
// constants, link pinned to 11 Mb/s, empty queue, no deadline.
func New(cfg Config) *DynamicDecider {
	base := cfg.Base
	if base.RateMBps <= 0 || math.IsNaN(base.RateMBps) || math.IsInf(base.RateMBps, 0) {
		base = energy.Params11Mbps()
	}
	srv := cfg.ServerMBps
	if srv <= 0 || math.IsNaN(srv) || math.IsInf(srv, 0) {
		srv = defaultServerMBps
	}
	d := &DynamicDecider{
		base:       base,
		calibrated: cfg.Calibrated,
		link:       cfg.Link,
		queue:      cfg.Queue,
		class:      cfg.Class,
		budgetJ:    sanitizeBudget(cfg.BudgetJ),
		serverMBps: srv,
		thresholds: make(map[thresholdKey]int),
	}
	if cfg.Metrics != nil {
		d.BindMetrics(cfg.Metrics)
	}
	return d
}

func sanitizeBudget(b float64) float64 {
	if b <= 0 || math.IsNaN(b) || math.IsInf(b, 0) {
		return 0
	}
	return b
}

// BindMetrics registers and attaches the decider_* counters. The proxy
// calls this at server construction; the obs registry is idempotent per
// name, so rebinding (or two deciders sharing a registry) is safe.
func (d *DynamicDecider) BindMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	d.m = &counters{
		decisions:   reg.Counter("decider_decisions_total", "block decisions made by the dynamic decider"),
		compress:    reg.Counter("decider_compress_total", "blocks the dynamic decider chose to compress"),
		raw:         reg.Counter("decider_raw_total", "blocks the dynamic decider chose to send raw"),
		constrained: reg.Counter("decider_deadline_constrained_total", "decisions where the deadline excluded the energy minimum"),
		overBudget:  reg.Counter("decider_over_budget_total", "decisions that pushed a client past its advisory energy budget"),
	}
}

// BindQueueDepth installs the live queue-depth source unless the
// constructor already pinned one (the harness pins zero for trace
// determinism; the proxy binds its worker-pool gauge through here).
func (d *DynamicDecider) BindQueueDepth(fn func() int) {
	if d.queue == nil {
		d.queue = fn
	}
}

// liveLink reads the link hook, sanitized.
func (d *DynamicDecider) liveLink() (float64, bool) {
	if d.link == nil {
		return d.base.RateMBps, false
	}
	rate, ps := d.link()
	return rate, ps
}

// liveQueue reads the queue hook, sanitized.
func (d *DynamicDecider) liveQueue() int {
	if d.queue == nil {
		return 0
	}
	if q := d.queue(); q > 0 {
		return q
	}
	return 0
}

// params returns the model adapted to the context's link state.
func (d *DynamicDecider) params(ctx BlockContext) energy.Params {
	return ParamsForLink(d.base, ctx.RateMBps, ctx.PowerSave)
}

func mb(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) / 1e6
}

// Evaluate scores both options for a block under the live model: modeled
// joules and seconds for sending it raw and for sending it compressed
// (the latter including queue wait — depth × block-size/service-rate of
// delay at idle draw). It is exported so the property suite and the
// differential soak oracle score streams with exactly the decider's own
// objective.
func (d *DynamicDecider) Evaluate(ctx BlockContext) (rawJ, compJ, rawT, compT float64) {
	p := d.params(ctx)
	s, sc := mb(ctx.RawLen), mb(ctx.CompLen)
	rawJ = p.DownloadEnergy(s)
	rawT = p.DownloadTime(s)
	compJ = p.InterleavedEnergy(s, sc)
	compT = p.InterleavedTime(s, sc)
	if q := ctx.QueueDepth; q > 0 && s > 0 {
		wait := float64(q) * s / d.serverMBps
		compT += wait
		compJ += wait * p.Pi
	}
	return rawJ, compJ, rawT, compT
}

// Decide makes the block decision. It is total: any BlockContext —
// extreme or non-finite rates, empty blocks, unknown classes — yields a
// finite, deterministic Decision (FuzzDynamicDecide gates this).
func (d *DynamicDecider) Decide(ctx BlockContext) Decision { return d.count(d.decide(ctx)) }

func (d *DynamicDecider) decide(ctx BlockContext) Decision {
	class := ctx.Class
	if class > ClassStrict {
		class = ClassNone
	}
	rawJ, compJ, rawT, compT := d.Evaluate(ctx)

	deadline := math.Inf(1)
	if slack := class.Slack(); !math.IsInf(slack, 1) {
		deadline = slack * rawT
	}

	// The static Eq. 6 baseline, including its 3900-byte floor: below the
	// paper's file threshold the static decider never attempts
	// compression (files that small are single-block, so block length
	// equals file length and the floor reconstructs exactly).
	staticCompress := ctx.RawLen >= energy.PaperFileThresholdBytes &&
		energy.PaperShouldCompress(ctx.RawLen, ctx.CompLen)

	// Candidate admission. Raw is always admitted (rawT ≤ slack·rawT).
	// Compressed is admitted when it meets the deadline; when the static
	// choice itself misses the deadline (static compressed and compT > D)
	// the deadline is unenforceable against the baseline, so both options
	// stay admitted and energy decides — that keeps dominance
	// unconditional while deadline safety holds wherever static met it.
	compOK := staticCompress || compT <= deadline
	compress := compOK && compJ < rawJ
	constrained := !compOK && compJ < rawJ

	dec := Decision{
		Compress:       compress,
		DeadlineS:      deadline,
		Constrained:    constrained,
		StaticCompress: staticCompress,
	}
	if compress {
		dec.EnergyJ, dec.LatencyS, dec.AltEnergyJ = compJ, compT, rawJ
	} else {
		dec.EnergyJ, dec.LatencyS, dec.AltEnergyJ = rawJ, rawT, compJ
	}
	if budget := sanitizeBudget(ctx.BudgetJ); budget > 0 {
		spent := ctx.SpentJ
		if math.IsNaN(spent) || spent < 0 {
			spent = 0
		}
		dec.OverBudget = spent+dec.EnergyJ > budget
	}
	return dec
}

// count adds dec to the decider_* counters.
func (d *DynamicDecider) count(dec Decision) Decision {
	if m := d.m; m != nil {
		m.decisions.Inc()
		if dec.Compress {
			m.compress.Inc()
		} else {
			m.raw.Inc()
		}
		if dec.Constrained {
			m.constrained.Inc()
		}
		if dec.OverBudget {
			m.overBudget.Inc()
		}
	}
	return dec
}

// context assembles the live BlockContext the selective.Decider surface
// decides against.
func (d *DynamicDecider) context(rawLen, compLen int) BlockContext {
	rate, ps := d.liveLink()
	return BlockContext{
		RawLen:     rawLen,
		CompLen:    compLen,
		RateMBps:   rate,
		PowerSave:  ps,
		QueueDepth: d.liveQueue(),
		Class:      d.class,
		BudgetJ:    d.budgetJ,
	}
}

// ShouldCompress implements selective.Decider against live state.
func (d *DynamicDecider) ShouldCompress(rawBytes, compBytes int) bool {
	return d.Decide(d.context(rawBytes, compBytes)).Compress
}

// MayCompress is ShouldCompress asked of the selective encoder's probe
// bound. Only a refusal, which sends the block raw, counts as a decision.
func (d *DynamicDecider) MayCompress(rawBytes, boundBytes int) bool {
	dec := d.decide(d.context(rawBytes, boundBytes))
	if !dec.Compress {
		d.count(dec)
	}
	return dec.Compress
}

// MinSizeBytes implements selective.Decider: blocks below this size are
// sent raw without attempting compression. It is the smaller of the
// paper's 3900-byte floor and the live model's can-never-help threshold,
// so the dynamic decider attempts every block the static decider
// attempts (a larger floor could skip a block the static decider
// compressed, breaking dominance) plus the small blocks that only pay
// off at the current link rate.
func (d *DynamicDecider) MinSizeBytes() int {
	rate, ps := d.liveLink()
	key := thresholdKey{rate: rate, ps: ps}
	d.mu.Lock()
	if v, ok := d.thresholds[key]; ok {
		d.mu.Unlock()
		return v
	}
	d.mu.Unlock()

	p := ParamsForLink(d.base, rate, ps)
	min := energy.PaperFileThresholdBytes
	if t := p.ThresholdSizeBytes(); t > 0 && t < float64(min) {
		min = int(t)
	}
	if min < 1 {
		min = 1
	}

	d.mu.Lock()
	if len(d.thresholds) > 64 {
		// The link hook quantizes to a handful of rate points in
		// practice; a runaway hook must not grow the cache unboundedly.
		d.thresholds = make(map[thresholdKey]int)
	}
	d.thresholds[key] = min
	d.mu.Unlock()
	return min
}

// WithClass returns a derived decider sharing this one's model, hooks
// and counters, but deciding under the given deadline class and advisory
// budget. Its fingerprint folds the class in, so artifacts built under
// different deadline classes never alias in the proxy cache.
func (d *DynamicDecider) WithClass(class Class, budgetJ float64) *DynamicDecider {
	if class > ClassStrict {
		class = ClassNone
	}
	out := &DynamicDecider{
		base:       d.base,
		calibrated: d.calibrated,
		link:       d.link,
		queue:      d.queue,
		class:      class,
		budgetJ:    sanitizeBudget(budgetJ),
		serverMBps: d.serverMBps,
		m:          d.m,
		thresholds: make(map[thresholdKey]int),
	}
	return out
}

// ForRequest is the proxy's per-request derivation hook (matched by
// interface assertion, so internal/proxy needs no import of this
// package): a request carrying a deadline class or budget decides under
// them. The budget is advisory and excluded from the fingerprint — only
// the class changes artifacts.
func (d *DynamicDecider) ForRequest(class uint8, budgetMilliJ uint32) (selective.Decider, string) {
	dd := d.WithClass(ClassFromByte(class), float64(budgetMilliJ)/1000)
	return dd, dd.Fingerprint()
}

// Fingerprint identifies the decision policy for artifact-cache keys: a
// stable rendering of the model coefficients, calibration provenance,
// queue service rate and deadline class. Live hooks and the advisory
// budget are deliberately excluded — they do not change which artifact a
// given (content, class) pair maps to under a fixed link state, and
// including them would either break determinism (function pointers) or
// shatter the cache (per-client budgets).
func (d *DynamicDecider) Fingerprint() string {
	p := d.base
	return fmt.Sprintf(
		"dynamic/v1 rate=%g idle=%g m=%g cs=%g pi=%g pd=%g pis=%g pds=%g tda=%g tdb=%g tdc=%g buf=%g srv=%g calib=%t class=%s",
		p.RateMBps, p.IdleFrac, p.M, p.Cs, p.Pi, p.Pd, p.PiSleep, p.PdSleep,
		p.TdA, p.TdB, p.TdC, p.BufMB, d.serverMBps, d.calibrated, d.class)
}
