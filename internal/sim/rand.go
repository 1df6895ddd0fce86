package sim

import "math/rand"

// math/rand's seeded generator, the one every golden trace pins, is an
// additive lagged Fibonacci sequence out[k] = out[k-607] + out[k-273] over
// 607 state words, and rand.NewSource fills all of them — 1,841 steps of
// the Lehmer generator x -> 48271·x mod (2^31-1), 4.9 KB — before the first
// draw. Step n of that generator is 48271^n · x0, so state word i is a
// closed form of the seed, and each of the first 273 draws is the sum of
// two state words nothing has overwritten yet. seeded answers those from
// the seed alone; a stream that lives longer hands over to the real source
// advanced to the same point, so every draw is math/rand's, bit for bit.
const (
	rngLen    = 607
	rngTap    = 273
	rngFeed   = rngLen - rngTap - 1 // draw k reads and rewrites word (rngFeed-k) mod rngLen
	lehmer    = 48271
	lehmerMod = 1<<31 - 1
)

// lehmerPow[i] is 48271^(21+3i) mod 2^31-1: Seed runs the Lehmer generator
// 20 steps, then draws three values (shifted 40, 20 and 0 bits) per word.
var lehmerPow = func() (p [rngLen]uint64) {
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = x * lehmer % lehmerMod
	}
	for i := range p {
		p[i] = x
		x = x * (lehmer * lehmer * lehmer % lehmerMod) % lehmerMod
	}
	return p
}()

// lehmerWord is the seed-dependent part of state word i for Lehmer seed x0.
func lehmerWord(x0 uint64, i int) uint64 {
	a := lehmerPow[i] * x0 % lehmerMod
	b := a * lehmer % lehmerMod
	c := b * lehmer % lehmerMod
	return a<<40 ^ b<<20 ^ c
}

// lehmerSeed is how math/rand reduces a seed to the Lehmer generator's
// start value.
func lehmerSeed(seed int64) uint64 {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// cooked are the 607 constants math/rand XORs into a freshly seeded state
// (rngCooked in $GOROOT/src/math/rand/rng.go). They are recovered at init
// from one real source's first 607 draws rather than copied: draw k >= 273
// is state word (rngFeed-k) mod 607 plus draw k-273, and draw k < 273 is word
// rngFeed-k plus word 606-k, which the first rule has produced by then.
var cooked = func() (c [rngLen]uint64) {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out [rngLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	for k := rngLen - 1; k >= rngTap; k-- {
		c[(rngFeed-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		c[rngFeed-k] = out[k] - c[rngLen-1-k]
	}
	for i := range c {
		c[i] ^= lehmerWord(seed, i)
	}
	return c
}()

// seeded is a rand.Source64 that reproduces rand.NewSource(seed) draw for
// draw without seeding 607 words to make a handful of draws.
type seeded struct {
	x0 uint64 // the Lehmer start value the seed reduces to
	k  int    // draws made so far, while full is nil
	// full takes over at draw 273, where draws start to depend on earlier
	// draws: a real source seeded alike and advanced past the first 273.
	full rand.Source64
}

func (s *seeded) Seed(seed int64) { *s = seeded{x0: lehmerSeed(seed)} }

func (s *seeded) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *seeded) Uint64() uint64 {
	if s.full == nil {
		if k := s.k; k < rngTap {
			s.k++
			feed, tap := rngFeed-k, rngLen-1-k
			return (lehmerWord(s.x0, feed) ^ cooked[feed]) + (lehmerWord(s.x0, tap) ^ cooked[tap])
		}
		s.full = rand.NewSource(int64(s.x0)).(rand.Source64)
		for i := 0; i < rngTap; i++ {
			s.full.Uint64()
		}
	}
	return s.full.Uint64()
}

// NewRand returns a generator whose every draw equals that of
// rand.New(rand.NewSource(seed)), at a cost that does not depend on the
// 607-word state a short-lived stream never reads. The testbed seeds one
// per simulated client, connection direction and fault plan.
func NewRand(seed int64) *rand.Rand {
	return rand.New(&seeded{x0: lehmerSeed(seed)})
}
