// Package export is the wide-event stage of the telemetry pipeline: one
// structured JSONL event per finished fetch or serve span, carrying
// everything downstream consumers need — the aggregator's rollup keys
// (scheme, device class), the calibrator's regression inputs (raw and
// wire bytes, per-class joules), and the operator's context (request ID,
// attempts, resumed bytes, outcome, per-phase durations).
//
// Two producer paths feed events:
//
//   - Live: a Sink attached to a proxy client or (via the Tracer's
//     Finish tee) a server. Record never blocks the dataplane — events
//     ride a bounded channel to a single drain goroutine that encodes
//     them; a full buffer drops the event and counts the drop. The sink
//     also keeps a bounded ring of recent events for /eventsz.
//   - Post-run: the soak harness synthesizes the canonical event stream
//     from its deterministic records (harness Report.Events), so the
//     same seed always yields byte-identical JSONL.
//
// The Event JSON schema is a stable contract (README "Telemetry and
// calibration"): fields may be added, never renamed or re-ordered.
package export

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Event is one wide event: the flattened, self-describing record of a
// finished fetch or serve span. Field order is the wire order; it is part
// of the schema contract.
type Event struct {
	// Time is the wall-clock span start (RFC3339Nano). Canonical streams
	// strip it: wall time is host noise under the virtual testbed.
	Time string `json:"time,omitempty"`
	// VNS is the span's start offset on the virtual clock in nanoseconds,
	// the deterministic ordering key of canonical streams. Live events
	// (no virtual epoch) carry 0.
	VNS int64 `json:"v_ns"`
	// Span is the span name: "fetch" (client side) or "serve" (proxy side).
	Span string `json:"span"`
	// ReqID is the %016x request ID shared by the client's fetch span and
	// every server serve span its attempts opened.
	ReqID string `json:"req_id,omitempty"`
	// Name is the file name fetched or served.
	Name string `json:"name,omitempty"`
	// Scheme and Mode are the transfer's compression scheme and mode.
	Scheme string `json:"scheme,omitempty"`
	Mode   string `json:"mode,omitempty"`
	// Device is the handheld's device class, its rate point's token
	// (energy.RateConfig.Device, e.g. "ipaq-11mbps"): the calibrator's
	// grouping key.
	Device string `json:"device,omitempty"`
	// LinkBps is the modeled link's effective rate in bytes per second.
	LinkBps float64 `json:"link_bps,omitempty"`
	// Outcome is "ok" or a stable error class (busy/notfound/protocol/err
	// on canonical streams; live events may carry the raw error text).
	Outcome string `json:"outcome"`

	// RawBytes and WireBytes are the transfer's s and sc in bytes: raw
	// payload delivered and frame bytes that crossed the wire (headers,
	// blocks, end frames, summed across attempts).
	RawBytes  int64 `json:"raw_bytes"`
	WireBytes int64 `json:"wire_bytes"`
	// Blocks / BlocksCompressed count the block frames received; a
	// nonzero BlocksCompressed selects the interleaved energy model.
	Blocks           int `json:"blocks,omitempty"`
	BlocksCompressed int `json:"blocks_compressed,omitempty"`
	// Attempts is the connections the fetch used (1 = no retries);
	// ResumedBytes is raw bytes retries did not re-transfer.
	Attempts     int   `json:"attempts,omitempty"`
	ResumedBytes int64 `json:"resumed_bytes,omitempty"`

	// DurNS is the span's duration in nanoseconds — virtual time on
	// canonical streams, wall time on live ones.
	DurNS int64 `json:"dur_ns"`
	// Phases are the span's phases folded by (name, class): durations,
	// bytes and joules summed across attempts.
	Phases []PhaseSum `json:"phases,omitempty"`

	// Per-class modeled joules (the paper's radio / cpu / idle split).
	// Their sum is the whole-transfer model estimate.
	RadioJ float64 `json:"radio_j"`
	CPUJ   float64 `json:"cpu_j"`
	IdleJ  float64 `json:"idle_j"`

	// Node and Peer identify cluster traffic: the node that emitted the
	// event and, for "peer-fetch" spans, the ring owner it fetched from.
	// Appended fields per the schema contract; both empty outside cluster
	// mode, so pre-cluster streams are unchanged.
	Node string `json:"node,omitempty"`
	Peer string `json:"peer,omitempty"`
}

// TotalJoules is the whole-transfer modeled energy.
func (e Event) TotalJoules() float64 { return e.RadioJ + e.CPUJ + e.IdleJ }

// PhaseSum is one folded phase group of an event.
type PhaseSum struct {
	Name   string  `json:"name"`
	Class  string  `json:"class,omitempty"`
	NS     int64   `json:"ns"`
	Bytes  int64   `json:"bytes,omitempty"`
	Joules float64 `json:"joules,omitempty"`
}

// FoldPhases groups a span's phases by (name, class) in first-appearance
// order, summing durations, bytes and joules — a retrying fetch's three
// recv phases fold into one "recv" entry covering all attempts.
func FoldPhases(phases []obs.Phase) []PhaseSum {
	if len(phases) == 0 {
		return nil
	}
	type key struct{ name, class string }
	idx := make(map[key]int, len(phases))
	out := make([]PhaseSum, 0, len(phases))
	for _, p := range phases {
		k := key{p.Name, p.Class}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, PhaseSum{Name: p.Name, Class: p.Class})
		}
		out[i].NS += p.Duration.Nanoseconds()
		out[i].Bytes += p.Bytes
		out[i].Joules += p.Joules
	}
	return out
}

// FromSpan flattens a finished span into an event: attributes become the
// identity fields, phases fold by (name, class), and the per-class joule
// totals come from the span's charged phases. The caller fills in fields
// the span cannot know (device class, link rate, byte totals).
func FromSpan(d obs.SpanData) Event {
	e := Event{
		Span:    d.Name,
		ReqID:   d.Attrs["req_id"],
		Name:    d.Attrs["name"],
		Scheme:  d.Attrs["scheme"],
		Mode:    d.Attrs["mode"],
		Outcome: "ok",
		Phases:  FoldPhases(d.Phases),
	}
	if !d.Start.IsZero() {
		e.Time = d.Start.UTC().Format("2006-01-02T15:04:05.999999999Z07:00")
		e.DurNS = d.End.Sub(d.Start).Nanoseconds()
	}
	if d.Err != "" {
		e.Outcome = d.Err
	}
	by := d.JoulesByClass()
	e.RadioJ = by[obs.ClassRadio]
	e.CPUJ = by[obs.ClassCPU]
	e.IdleJ = by[obs.ClassIdle]
	return e
}

// Canonicalize returns the deterministic form of an event stream: events
// sorted by (virtual start, request ID, span), wall-clock timestamps
// stripped, and host-measured CPU phase entries removed (decompress and
// verify wall durations vary run to run even under the virtual clock; the
// cpu_j class total is model-derived and exact, so no information the
// calibrator needs is lost). Two runs of the same seeded scenario produce
// byte-identical canonical JSONL.
func Canonicalize(events []Event) []Event {
	out := make([]Event, len(events))
	for i, e := range events {
		e.Time = ""
		var phases []PhaseSum
		for _, p := range e.Phases {
			if p.Class == obs.ClassCPU {
				continue
			}
			phases = append(phases, p)
		}
		e.Phases = phases
		out[i] = e
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].VNS != out[j].VNS {
			return out[i].VNS < out[j].VNS
		}
		if out[i].ReqID != out[j].ReqID {
			return out[i].ReqID < out[j].ReqID
		}
		return out[i].Span < out[j].Span
	})
	return out
}

// WriteJSONL encodes events one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL decodes a JSONL event stream, tolerating blank lines.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	dec := json.NewDecoder(r)
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("export: event %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
}

// Sink delivers events to an optional io.Writer as JSONL without ever
// blocking the producer, and retains the most recent events in a bounded
// ring for /eventsz. Record enqueues on a bounded channel; one drain
// goroutine encodes and writes. When the buffer is full the event is
// dropped and counted — backpressure must never reach the dataplane.
// A nil *Sink absorbs all operations, matching the obs idiom.
type Sink struct {
	ch   chan Event
	done chan struct{}

	mu    sync.Mutex
	ring  []Event
	head  int
	count int
	wErr  error

	// closeMu serializes Record against Close: sends take the read side,
	// so Close can mark the sink closed and close the channel without a
	// send-on-closed-channel race.
	closeMu   sync.RWMutex
	closed    bool
	closeOnce sync.Once

	recorded atomic.Int64
	droppedN atomic.Int64

	// Registry counters, nil until Bind; the atomics above keep counts
	// available to tests and Stats without a registry.
	eventsTotal  *obs.Counter
	droppedTotal *obs.Counter
}

// Default sink shape: the buffer absorbs a burst of a full connection
// backlog; the ring keeps a /tracez-sized page of recent events.
const (
	defaultBuffer = 1024
	defaultRing   = 256
)

// NewSink starts a sink draining to w (nil keeps the ring only). buffer
// and ring sizes fall back to defaults when <= 0. Close releases the
// drain goroutine.
func NewSink(w io.Writer, buffer, ring int) *Sink {
	if buffer <= 0 {
		buffer = defaultBuffer
	}
	if ring <= 0 {
		ring = defaultRing
	}
	s := &Sink{
		ch:   make(chan Event, buffer),
		done: make(chan struct{}),
		ring: make([]Event, ring),
	}
	go s.drain(w)
	return s
}

func (s *Sink) drain(w io.Writer) {
	defer close(s.done)
	var bw *bufio.Writer
	var enc *json.Encoder
	if w != nil {
		bw = bufio.NewWriter(w)
		enc = json.NewEncoder(bw)
	}
	for e := range s.ch {
		s.mu.Lock()
		s.ring[s.head] = e
		s.head = (s.head + 1) % len(s.ring)
		if s.count < len(s.ring) {
			s.count++
		}
		if enc != nil && s.wErr == nil {
			s.wErr = enc.Encode(e)
		}
		s.mu.Unlock()
	}
	if bw != nil {
		s.mu.Lock()
		if err := bw.Flush(); err != nil && s.wErr == nil {
			s.wErr = err
		}
		s.mu.Unlock()
	}
}

// Bind registers the sink's drop accounting on a registry:
// export_events_total and export_events_dropped_total.
func (s *Sink) Bind(reg *obs.Registry) {
	if s == nil {
		return
	}
	s.eventsTotal = reg.Counter("export_events_total",
		"Wide events accepted by the export sink.")
	s.droppedTotal = reg.Counter("export_events_dropped_total",
		"Wide events dropped because the sink buffer was full.")
}

// Record enqueues an event, dropping it (and counting the drop) when the
// buffer is full or the sink is closed. It never blocks.
func (s *Sink) Record(e Event) {
	if s == nil {
		return
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		s.droppedN.Add(1)
		s.droppedTotal.Inc()
		return
	}
	select {
	case s.ch <- e:
		s.recorded.Add(1)
		s.eventsTotal.Inc()
	default:
		s.droppedN.Add(1)
		s.droppedTotal.Inc()
	}
}

// Recent returns the retained events, oldest first, sized to the count
// actually retained.
func (s *Sink) Recent() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return nil
	}
	out := make([]Event, 0, s.count)
	start := s.head - s.count
	if start < 0 {
		start += len(s.ring)
	}
	for i := 0; i < s.count; i++ {
		out = append(out, s.ring[(start+i)%len(s.ring)])
	}
	return out
}

// Recorded and Dropped report the sink's lifetime accept/drop counts.
func (s *Sink) Recorded() int64 {
	if s == nil {
		return 0
	}
	return s.recorded.Load()
}

func (s *Sink) Dropped() int64 {
	if s == nil {
		return 0
	}
	return s.droppedN.Load()
}

// Close drains buffered events, flushes the writer and stops the drain
// goroutine, returning the first write error the sink hit. Record after
// Close drops (and counts) the event rather than panicking.
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		s.closeMu.Lock()
		s.closed = true
		close(s.ch)
		s.closeMu.Unlock()
	})
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wErr
}
