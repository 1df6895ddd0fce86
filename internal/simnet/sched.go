package simnet

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
)

// Phase is one step of a scripted link schedule: from Start (virtual time
// since the clock's epoch) onward, the medium serializes at Rate bytes per
// second. Rate <= 0 pauses the link entirely — a power-save window or a
// dead-air fault — and transmissions in flight resume when a later phase
// restores a positive rate. Before the first phase the transmitter's own
// Link rate applies; per-hop Latency and the per-direction jitter streams
// always come from the Link, so a schedule reshapes the timeline without
// touching any seeded randomness.
type Phase struct {
	Start time.Duration
	Rate  float64
}

// Schedule is an immutable, time-sorted phase list shared by every
// transmitter of a Network. It is installed once, before traffic starts,
// via Network.SetSchedule; endpoints read it under the clock lock.
type Schedule struct {
	phases []Phase
}

// NewSchedule validates and freezes a phase list: phases must be in
// strictly increasing Start order and the final phase must leave the link
// running (a schedule that ends paused would park writers forever, which
// in virtual time is a deadlock, not slowness).
func NewSchedule(phases []Phase) (*Schedule, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("simnet: empty schedule")
	}
	for i, p := range phases {
		if p.Start < 0 {
			return nil, fmt.Errorf("simnet: phase %d starts at negative time %s", i, p.Start)
		}
		if i > 0 && p.Start <= phases[i-1].Start {
			return nil, fmt.Errorf("simnet: phase %d start %s not after phase %d start %s",
				i, p.Start, i-1, phases[i-1].Start)
		}
	}
	if last := phases[len(phases)-1]; last.Rate <= 0 {
		return nil, fmt.Errorf("simnet: final phase (start %s) leaves the link paused forever", last.Start)
	}
	return &Schedule{phases: append([]Phase(nil), phases...)}, nil
}

// rateAt returns the rate in effect at virtual time t (base before the
// first phase) and the time the current phase ends (0 when it never does).
func (s *Schedule) rateAt(t time.Duration, base float64) (rate float64, until time.Duration) {
	// First phase strictly after t; the one before it governs t.
	i := sort.Search(len(s.phases), func(i int) bool { return s.phases[i].Start > t })
	rate = base
	if i > 0 {
		rate = s.phases[i-1].Rate
	}
	if i < len(s.phases) {
		until = s.phases[i].Start
	}
	return rate, until
}

// txDone returns when a transmission of n bytes that may begin at start
// finishes under the schedule, draining bytes at each phase's rate and
// stalling through paused phases. A nil schedule is the constant-rate
// medium: start plus the link's txTime. Jitter stretches the byte count
// once per write — the same single rng draw the constant-rate path makes
// — so a link's seeded timeline stays a pure function of (seed, write
// sequence) whether or not a schedule is installed.
func (s *Schedule) txDone(start time.Duration, n int, base Link, rng *sim.Stream) time.Duration {
	if s == nil {
		return start + base.txTime(n, rng)
	}
	if n <= 0 {
		return start
	}
	if base.BytesPerSec <= 0 && start < s.phases[0].Start {
		// Before the first phase the link's own rate applies, and a link
		// with none is infinitely fast: the write is done at once, with no
		// jitter draw, as txTime has it.
		return start
	}
	bytes := float64(n)
	if base.JitterFrac > 0 {
		bytes *= 1 + base.JitterFrac*rng.Float64()
	}
	t := start
	for bytes > 0 {
		rate, until := s.rateAt(t, base.BytesPerSec)
		if rate <= 0 {
			// Paused. NewSchedule guarantees a later running phase exists.
			t = until
			continue
		}
		need := time.Duration(bytes / rate * float64(time.Second))
		if until == 0 || t+need <= until {
			return t + need
		}
		bytes -= (until - t).Seconds() * rate
		t = until
	}
	return t
}

// SetSchedule installs a scripted link schedule on the network. One
// network is one medium: every transmitter on it — each connection's own
// and each listener's shared line, existing and future — follows the
// schedule, each write serializing at the rate in effect when its
// transmission slot runs and pausing through power-save phases. A link
// that must not share the medium's schedule (a wired backhaul) belongs on
// a network of its own over the same clock. Call it before traffic
// starts; installing a schedule mid-transfer only affects writes issued
// afterwards.
func (nw *Network) SetSchedule(phases []Phase) error {
	s, err := NewSchedule(phases)
	if err != nil {
		return err
	}
	nw.clock.mu.Lock()
	defer nw.clock.mu.Unlock()
	nw.sched = s
	return nil
}
