package obs

import (
	"maps"
	"slices"
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

// SpanData is a finished (or copied) span: the value snapshots and the
// finish hook return, built from the span when read, and marshalled by
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
// branches on whether tracing is enabled. A finished span is immutable:
// Finish hands the span itself to the tracer's ring, so every mutator
// called after it changes nothing. Its SpanData is built when something
// reads it (Snapshot, AppendSnapshot, Data, the finish hook): the
// attributes live in the span until then, and a span nobody reads costs
// no map and no formatted request ID.
type Span struct {
	t  *Tracer
	mu sync.Mutex
	// d is the span's state but for its attributes: d.Attrs stays nil.
	d    SpanData
	done bool
	// hasReqID records that SetReqID set the req_id attribute to reqID
	// after any SetAttr of that key.
	hasReqID bool
	nattrs   uint8
	reqID    uint64
	// attrs holds the first keys set, in place; more holds any key set
	// once they are full, so no key is in both. A served request's span
	// sets five besides its req_id, a selective build's two more.
	attrs [7]attr
	more  map[string]string
	// phases backs d.Phases until a span records more than fit: a served
	// request's span records three or four, a client fetch's six (dial,
	// header, recv, decompress, verify, idle).
	phases [6]Phase
}

// attr is one attribute a span keeps in place.
type attr struct{ key, value string }

// reqIDKey is the attribute SetReqID sets.
const reqIDKey = "req_id"

// open locks s for a mutation, reporting false (and leaving it unlocked)
// for a nil or finished span.
func (s *Span) open() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return false
	}
	return true
}

// SetAttr attaches a key/value attribute; a later write of the key wins.
func (s *Span) SetAttr(key, value string) {
	if !s.open() {
		return
	}
	defer s.mu.Unlock()
	if key == reqIDKey {
		s.hasReqID = false
	}
	for i := range s.attrs[:s.nattrs] {
		if s.attrs[i].key == key {
			s.attrs[i].value = value
			return
		}
	}
	if int(s.nattrs) < len(s.attrs) {
		s.attrs[s.nattrs] = attr{key, value}
		s.nattrs++
		return
	}
	if s.more == nil {
		s.more = make(map[string]string)
	}
	s.more[key] = value
}

// SetReqID sets the req_id attribute to id as ReqID spells it, which it
// formats only when the span is read.
func (s *Span) SetReqID(id uint64) {
	if !s.open() {
		return
	}
	defer s.mu.Unlock()
	s.reqID, s.hasReqID = id, true
}

// Phase records an interval that started at the given wall time.
func (s *Span) Phase(name, class string, start time.Time, dur time.Duration, bytes int64) {
	if !s.open() {
		return
	}
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
	if !s.open() {
		return
	}
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
	if !s.open() {
		return
	}
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
	if total == 0 || !s.open() {
		return
	}
	defer s.mu.Unlock()
	var n, last int
	var byteSum, durSum float64
	for i, p := range s.d.Phases {
		if p.Class == class {
			n, last = n+1, i
			byteSum += float64(p.Bytes)
			durSum += p.Duration.Seconds()
		}
	}
	if n == 0 {
		s.d.Phases = append(s.d.Phases, Phase{Name: class, Class: class, Joules: total})
		return
	}
	// Give the last phase the exact remainder so rounding never loses or
	// invents energy relative to total.
	rest := total
	for i := range s.d.Phases[:last] {
		p := &s.d.Phases[i]
		if p.Class != class {
			continue
		}
		var share float64
		switch {
		case byteSum > 0:
			share = total * float64(p.Bytes) / byteSum
		case durSum > 0:
			share = total * p.Duration.Seconds() / durSum
		default:
			share = total / float64(n)
		}
		p.Joules += share
		rest -= share
	}
	s.d.Phases[last].Joules += rest
}

// Fail records the error the span ended with.
func (s *Span) Fail(err error) {
	if err == nil || !s.open() {
		return
	}
	defer s.mu.Unlock()
	s.d.Err = err.Error()
}

// Phases returns the span's phases, usable before or after Finish: a copy
// while the span is open, and after Finish the finished span's own,
// which nothing changes any more. It builds no attribute map, so a
// reader that needs only the phases (a fetch's wide event) pays for
// nothing else.
func (s *Span) Phases() []Phase {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done {
		return slices.Clone(s.d.Phases)
	}
	return s.d.Phases
}

// data builds the span's SpanData, its attributes in a new map. The
// caller holds s.mu or reads a finished span.
func (s *Span) data() SpanData {
	d := s.d
	n := int(s.nattrs) + len(s.more)
	if s.hasReqID {
		n++
	}
	if n == 0 {
		return d
	}
	d.Attrs = make(map[string]string, n)
	for _, a := range s.attrs[:s.nattrs] {
		d.Attrs[a.key] = a.value
	}
	maps.Copy(d.Attrs, s.more)
	if s.hasReqID {
		d.Attrs[reqIDKey] = ReqID(s.reqID)
	}
	return d
}

// Finish stamps the end time, freezes the span and publishes it to its
// tracer's ring buffer. Only the first call does anything; call it once,
// typically via defer.
func (s *Span) Finish() {
	if !s.open() {
		return
	}
	s.d.End = time.Now()
	s.done = true
	// Clipped, so that a reader appending to its phases copies them.
	s.d.Phases = slices.Clip(s.d.Phases)
	s.mu.Unlock()
	if s.t != nil {
		s.t.push(s)
	}
}

// Tracer hands out spans and retains the most recent finished ones in a
// fixed-capacity ring buffer: old traces are evicted in finish order, so
// memory stays bounded no matter the request rate.
type Tracer struct {
	nextID atomic.Uint64

	mu    sync.Mutex
	ring  []*Span // finished spans, read in place
	head  int     // next write position
	count int
	// onFinish, when set, observes every finished span after it lands in
	// the ring — the tee the wide-event export sink hangs off, so a live
	// tracer can feed /eventsz without the dataplane knowing about sinks.
	onFinish func(SpanData)
}

// NewTracer returns a tracer retaining up to capacity finished spans
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	return new(Tracer).Init(make([]*Span, max(capacity, 1)))
}

// Init makes t, a zero Tracer, retain up to len(ring) finished spans in
// ring, which must not be empty, and returns t. A caller that runs many
// tracers at once (the testbed, one per simulated handheld) keeps them
// and their rings in slices of its own this way.
func (t *Tracer) Init(ring []*Span) *Tracer {
	t.ring = ring
	return t
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
// the ring; each call builds the span's SpanData for it. The hook runs
// outside the tracer's lock, on the goroutine that called Finish; it must
// not block. A nil tracer ignores the call.
func (t *Tracer) SetOnFinish(fn func(SpanData)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.onFinish = fn
	t.mu.Unlock()
}

func (t *Tracer) push(s *Span) {
	t.mu.Lock()
	t.ring[t.head] = s
	t.head = (t.head + 1) % len(t.ring)
	if t.count < len(t.ring) {
		t.count++
	}
	fn := t.onFinish
	t.mu.Unlock()
	if fn != nil {
		fn(s.data())
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
	return t.appendLocked(make([]SpanData, 0, t.count))
}

// AppendSnapshot appends the retained spans to dst, oldest finished
// first, and returns the extended slice: a caller reading many tracers
// can read them all into one slice of its own.
func (t *Tracer) AppendSnapshot(dst []SpanData) []SpanData {
	if t == nil {
		return dst
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.appendLocked(dst)
}

func (t *Tracer) appendLocked(dst []SpanData) []SpanData {
	start := t.head - t.count
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.count; i++ {
		dst = append(dst, t.ring[(start+i)%len(t.ring)].data())
	}
	return dst
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
