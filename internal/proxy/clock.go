package proxy

import "time"

// WallClock abstracts the two wall-clock operations the proxy dataplane
// performs — reading the time (to compute I/O deadlines) and sleeping
// (retry backoff) — so the same unmodified server and client can run
// either on the host clock or on the virtual testbed clock
// (internal/simnet), where sleeps and deadlines advance simulated time
// instead of burning real seconds.
type WallClock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// SystemClock is the host-time WallClock: Now and Sleep delegate to the
// time package. It is the default everywhere a WallClock is optional.
type SystemClock struct{}

// Now returns time.Now().
func (SystemClock) Now() time.Time { return time.Now() }

// Sleep calls time.Sleep.
func (SystemClock) Sleep(d time.Duration) { time.Sleep(d) }
