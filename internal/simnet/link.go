package simnet

import (
	"time"

	"repro/internal/energy"
	"repro/internal/sim"
)

// Link models one hop of the testbed WLAN: a serialization rate, a
// one-way latency, and optional seeded jitter. Each connection's two
// directions are independent instances of the same Link, so a full-rate
// download does not slow the request/ACK direction (the paper's
// downloads are effectively one-way bulk transfers).
type Link struct {
	// BytesPerSec is the effective one-way data rate, MAC overhead
	// included. WaveLAN11 takes the paper's measured figure from energy's
	// rate table, which energy.Params.RateMBps also reads — what keeps the
	// harness's modeled transfer times and its Eq. 1/Eq. 3 energy accounting
	// on one timeline. Zero or negative means infinitely fast.
	BytesPerSec float64
	// Latency is the one-way propagation + queueing delay per hop.
	Latency time.Duration
	// JitterFrac, when positive, stretches each write's transmit time by
	// a uniform draw from [0, JitterFrac] of itself — contention and
	// retransmission variance. Draws come from the per-direction seeded
	// stream, so a given (Seed, write sequence) always produces the same
	// timeline.
	JitterFrac float64
	// Seed seeds the two per-direction jitter streams.
	Seed int64
}

// WaveLAN11 is the paper's primary configuration: the 11 Mb/s rate point's
// effective rate (Table 1 / Section 3.1), ~2 ms one-way latency.
func WaveLAN11() Link {
	return Link{BytesPerSec: energy.Rate11Mbps().BytesPerSec(), Latency: 2 * time.Millisecond}
}

// txTime returns the virtual time serializing n bytes takes on l,
// drawing jitter from rng when configured.
func (l Link) txTime(n int, rng *sim.Stream) time.Duration {
	if l.BytesPerSec <= 0 || n <= 0 {
		return 0
	}
	secs := float64(n) / l.BytesPerSec
	if l.JitterFrac > 0 {
		secs *= 1 + l.JitterFrac*rng.Float64()
	}
	return time.Duration(secs * float64(time.Second))
}

// dirSeed derives the jitter seed for one direction of a connection from
// the link seed (splitmix64-style spreading, so adjacent seeds do not
// produce correlated streams).
func dirSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
