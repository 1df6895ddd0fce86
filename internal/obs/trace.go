package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Energy classes a phase can be charged under. The split mirrors the
// paper's model: radio covers receive and communication start-up energy
// (m·s + cs of Eq. 1), cpu covers decompression (td·pd), and idle is the
// residual CPU-idle energy (ti·pi) that interleaving could not reclaim.
// Phases with an empty class carry no modeled energy.
const (
	ClassRadio = "radio"
	ClassCPU   = "cpu"
	ClassIdle  = "idle"
)

// Phase is one labelled interval inside a span: a name ("dial", "recv",
// "decompress", …), its offset from the span start and duration, the
// bytes it handled, and — once the span is charged — the modeled joules
// attributed to it.
type Phase struct {
	Name string `json:"name"`
	// Class groups the phase for energy attribution: ClassRadio,
	// ClassCPU, ClassIdle, or "" for phases outside the model (backoff
	// sleeps, resume accounting).
	Class string `json:"class,omitempty"`
	// Start is the offset from the span's start (nanoseconds in JSON).
	Start time.Duration `json:"start_ns"`
	// Duration is the phase's wall time. Interleaved phases (decompress
	// overlapping receive) may overlap other phases; durations need not
	// tile the span.
	Duration time.Duration `json:"duration_ns"`
	Bytes    int64         `json:"bytes,omitempty"`
	Joules   float64       `json:"joules,omitempty"`
	// Detail carries free-form context ("attempt 2", "cache hit").
	Detail string `json:"detail,omitempty"`
}

// SpanData is a finished (or copied) span: the immutable value stored in
// the tracer's ring buffer, returned by snapshots, and marshalled by
// /tracez and hhfetch -trace.
type SpanData struct {
	ID    uint64            `json:"id"`
	Name  string            `json:"name"`
	Attrs map[string]string `json:"attrs,omitempty"`
	Start time.Time         `json:"start"`
	End   time.Time         `json:"end"`
	Err   string            `json:"err,omitempty"`
	// Phases are in the order they were recorded, which is start order
	// for the single-goroutine paths and close to it elsewhere.
	Phases []Phase `json:"phases"`
}

// TotalJoules sums the modeled energy over all phases.
func (d SpanData) TotalJoules() float64 {
	var j float64
	for _, p := range d.Phases {
		j += p.Joules
	}
	return j
}

// JoulesByClass sums the modeled energy per energy class.
func (d SpanData) JoulesByClass() map[string]float64 {
	out := make(map[string]float64)
	for _, p := range d.Phases {
		if p.Joules != 0 {
			out[p.Class] += p.Joules
		}
	}
	return out
}

// Span is an in-progress trace. Its mutator methods are safe for
// concurrent use (the client's decompressor goroutine records phases
// while the receive loop does) and nil-safe, so instrumented code never
// branches on whether tracing is enabled.
type Span struct {
	t  *Tracer
	mu sync.Mutex
	d  SpanData
	// phases backs d.Phases until a span records more than fit: a served
	// request's span records three or four.
	phases [4]Phase
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.d.Attrs == nil {
		s.d.Attrs = make(map[string]string)
	}
	s.d.Attrs[key] = value
}

// Phase records an interval that started at the given wall time.
func (s *Span) Phase(name, class string, start time.Time, dur time.Duration, bytes int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.d.Phases = append(s.d.Phases, Phase{
		Name:     name,
		Class:    class,
		Start:    start.Sub(s.d.Start),
		Duration: dur,
		Bytes:    bytes,
	})
}

// PhaseDetail records an interval with a free-form detail string.
func (s *Span) PhaseDetail(name, class, detail string, start time.Time, dur time.Duration, bytes int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.d.Phases = append(s.d.Phases, Phase{
		Name:     name,
		Class:    class,
		Start:    start.Sub(s.d.Start),
		Duration: dur,
		Bytes:    bytes,
		Detail:   detail,
	})
}

// AccountPhase appends a zero-duration accounting entry carrying joules
// directly — the idle-residual energy of the paper's model, which belongs
// to no recorded interval.
func (s *Span) AccountPhase(name, class string, joules float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.d.Phases = append(s.d.Phases, Phase{Name: name, Class: class, Joules: joules})
}

// DistributeJoules spreads total joules over the span's phases of the
// given class, weighted by Bytes when any phase of the class moved bytes,
// by Duration otherwise, and evenly as a last resort. If the span has no
// phase of the class, a synthetic accounting phase is appended so no
// energy is silently dropped. The span's total modeled energy therefore
// increases by exactly total.
func (s *Span) DistributeJoules(class string, total float64) {
	if s == nil || total == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var idx []int
	var byteSum, durSum float64
	for i, p := range s.d.Phases {
		if p.Class == class {
			idx = append(idx, i)
			byteSum += float64(p.Bytes)
			durSum += p.Duration.Seconds()
		}
	}
	if len(idx) == 0 {
		s.d.Phases = append(s.d.Phases, Phase{Name: class, Class: class, Joules: total})
		return
	}
	weight := func(p Phase) float64 { return 1 }
	wsum := float64(len(idx))
	switch {
	case byteSum > 0:
		weight, wsum = func(p Phase) float64 { return float64(p.Bytes) }, byteSum
	case durSum > 0:
		weight, wsum = func(p Phase) float64 { return p.Duration.Seconds() }, durSum
	}
	// Give the last phase the exact remainder so rounding never loses or
	// invents energy relative to total.
	rest := total
	for n, i := range idx {
		if n == len(idx)-1 {
			s.d.Phases[i].Joules += rest
			break
		}
		share := total * weight(s.d.Phases[i]) / wsum
		s.d.Phases[i].Joules += share
		rest -= share
	}
}

// Fail records the error the span ended with.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.d.Err = err.Error()
}

// Data returns a copy of the span's current state, usable before or after
// Finish (hhfetch -trace prints the fetch span it owns this way).
func (s *Span) Data() SpanData {
	if s == nil {
		return SpanData{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.copyLocked()
}

func (s *Span) copyLocked() SpanData {
	d := s.d
	d.Phases = append([]Phase(nil), s.d.Phases...)
	if s.d.Attrs != nil {
		d.Attrs = make(map[string]string, len(s.d.Attrs))
		for k, v := range s.d.Attrs {
			d.Attrs[k] = v
		}
	}
	return d
}

// Finish stamps the end time and publishes the span to its tracer's ring
// buffer. Finish is idempotent in effect only if called once; call it
// exactly once, typically via defer.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.d.End = time.Now()
	d := s.copyLocked()
	t := s.t
	s.mu.Unlock()
	if t != nil {
		t.push(d)
	}
}

// Tracer hands out spans and retains the most recent finished ones in a
// fixed-capacity ring buffer: old traces are evicted in finish order, so
// memory stays bounded no matter the request rate.
type Tracer struct {
	nextID atomic.Uint64

	mu    sync.Mutex
	ring  []SpanData
	head  int // next write position
	count int
	// onFinish, when set, observes every finished span after it lands in
	// the ring — the tee the wide-event export sink hangs off, so a live
	// tracer can feed /eventsz without the dataplane knowing about sinks.
	onFinish func(SpanData)
}

// NewTracer returns a tracer retaining up to capacity finished spans
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]SpanData, capacity)}
}

// Start begins a span. A nil tracer returns a nil span, which absorbs all
// operations.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, d: SpanData{
		ID:    t.nextID.Add(1),
		Name:  name,
		Start: time.Now(),
	}}
	s.d.Phases = s.phases[:0]
	return s
}

// SetOnFinish installs a hook observing every span after it is pushed to
// the ring. The hook runs outside the tracer's lock, on the goroutine that
// called Finish; it must not block. A nil tracer ignores the call.
func (t *Tracer) SetOnFinish(fn func(SpanData)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.onFinish = fn
	t.mu.Unlock()
}

func (t *Tracer) push(d SpanData) {
	t.mu.Lock()
	t.ring[t.head] = d
	t.head = (t.head + 1) % len(t.ring)
	if t.count < len(t.ring) {
		t.count++
	}
	fn := t.onFinish
	t.mu.Unlock()
	if fn != nil {
		fn(d)
	}
}

// Snapshot returns the retained spans, oldest finished first. The result
// is sized exactly to Len(): an idle tracer returns nil, not a slice with
// the ring's full capacity behind it.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count == 0 {
		return nil
	}
	out := make([]SpanData, 0, t.count)
	start := t.head - t.count
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.count; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Len reports how many finished spans the tracer currently retains.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}
