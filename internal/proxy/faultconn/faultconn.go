// Package faultconn is a fault-injection transport: a net.Conn wrapper
// that damages traffic according to a seeded, deterministic plan —
// injected delays, fragmented writes, mid-stream resets, truncation, and
// payload bit-flips. It models the lossy 802.11b
// link of the paper's testbed so the proxy protocol, the retrying client,
// and the whole stress suite can be exercised over a hostile wire instead
// of a loopback that never fails.
//
// Determinism: every wrapped connection draws its fault schedule from a
// PRNG seeded with Plan.Seed combined with the connection's id, so a given
// (plan, connection-order) pair replays the same faults run after run.
package faultconn

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// ErrInjectedReset is the error surfaced locally when the plan kills a
// connection mid-operation; the peer observes a reset or an EOF.
var ErrInjectedReset = errors.New("faultconn: injected connection reset")

// Plan describes a deterministic fault schedule. All probabilities are in
// [0, 1]. Reset, Truncate, Delay and Fragment fire per I/O call; BitFlip
// fires per byte moved.
type Plan struct {
	// Seed picks the fault schedule; the same seed replays the same
	// faults for the same connection order.
	Seed int64

	// DelayProb injects a pause of up to MaxDelay before an I/O call.
	DelayProb float64
	// MaxDelay bounds injected delays (default 2ms when DelayProb > 0).
	MaxDelay time.Duration

	// FragmentProb splits a write into two underlying writes, exercising
	// frame reassembly across packet boundaries.
	FragmentProb float64

	// ResetProb kills the connection before the I/O call: the local side
	// gets ErrInjectedReset, the peer a RST/EOF.
	ResetProb float64

	// TruncateProb writes only a prefix of the buffer, then kills the
	// connection — the peer sees a cleanly delivered partial stream.
	TruncateProb float64

	// BitFlipProb flips one random bit of an I/O call's buffer: applied to
	// bytes returned by Read and, without mutating the caller's buffer, to
	// bytes passed to Write. Per-call (not per-byte), so a "1% fault rate"
	// corrupts about one frame in a hundred — the regime where the frame
	// CRCs and resume machinery earn their keep.
	BitFlipProb float64

	// StallReadsAfter, when positive, makes the connection go silent once
	// that many bytes have been read through it: every later Read blocks
	// until the connection is closed. No reset and no EOF — a handheld that
	// walked out of range mid-download, which its peer can only detect by
	// its own write deadline.
	StallReadsAfter int64
}

// enabled reports whether the plan can inject anything at all.
func (p Plan) enabled() bool {
	return p.DelayProb > 0 || p.FragmentProb > 0 || p.ResetProb > 0 ||
		p.TruncateProb > 0 || p.BitFlipProb > 0 || p.StallReadsAfter > 0
}

// Wrap returns conn with the plan's faults applied. id selects the
// per-connection deterministic fault stream; callers accepting many
// connections should hand out sequential ids.
func (p Plan) Wrap(conn net.Conn, id int64) net.Conn {
	if !p.enabled() {
		return conn
	}
	if p.DelayProb > 0 && p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Millisecond
	}
	// SplitMix64-style spread so nearby ids get uncorrelated streams.
	seed := p.Seed + id*0x1E3779B97F4A7C15
	seed ^= seed >> 30
	return &faultConn{Conn: conn, plan: p, rng: sim.NewRand(seed), gone: make(chan struct{})}
}

// Wrapper returns a hook suitable for proxy.Config.WrapConn: each call
// wraps the connection with the next sequential id.
func (p Plan) Wrapper() func(net.Conn) net.Conn {
	var n atomic.Int64
	return func(conn net.Conn) net.Conn { return p.Wrap(conn, n.Add(1)) }
}

// faultConn applies a Plan to one connection. The PRNG is shared by the
// read and write paths, so it is guarded by a mutex; fault decisions are
// drawn under the lock, the I/O itself happens outside it.
type faultConn struct {
	net.Conn
	plan   Plan
	mu     sync.Mutex
	rng    *rand.Rand
	downed atomic.Bool
	// nread counts bytes read, for StallReadsAfter; gone is closed when
	// the connection is, and releases a stalled Read.
	nread atomic.Int64
	gone  chan struct{}
}

// decision is one I/O call's predrawn fault outcome.
type decision struct {
	delay    time.Duration
	reset    bool
	truncate int // bytes to deliver before killing the conn; -1 = off
	fragment int // split point for writes; -1 = off
	flip     int // bit index to flip in the buffer; -1 = off
}

// draw rolls the plan's dice for an operation on n bytes.
func (c *faultConn) draw(n int, writing bool) decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := decision{truncate: -1, fragment: -1, flip: -1}
	p := c.plan
	if p.DelayProb > 0 && c.rng.Float64() < p.DelayProb {
		d.delay = time.Duration(c.rng.Int63n(int64(p.MaxDelay) + 1))
	}
	if p.ResetProb > 0 && c.rng.Float64() < p.ResetProb {
		d.reset = true
		return d
	}
	if writing {
		if p.TruncateProb > 0 && c.rng.Float64() < p.TruncateProb {
			if n > 0 {
				d.truncate = c.rng.Intn(n)
			} else {
				d.truncate = 0
			}
			return d
		}
		if p.FragmentProb > 0 && n > 1 && c.rng.Float64() < p.FragmentProb {
			d.fragment = 1 + c.rng.Intn(n-1)
		}
	}
	if p.BitFlipProb > 0 && n > 0 && c.rng.Float64() < p.BitFlipProb {
		d.flip = c.rng.Intn(n * 8)
	}
	return d
}

// kill tears the connection down so the peer observes a hard failure. For
// TCP the linger is zeroed first, turning the close into a RST instead of
// an orderly FIN — that is what a vanished handheld looks like.
func (c *faultConn) kill() {
	if c.downed.Swap(true) {
		return
	}
	close(c.gone)
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Conn.Close()
}

func (c *faultConn) Read(b []byte) (int, error) {
	if c.downed.Load() {
		return 0, ErrInjectedReset
	}
	if after := c.plan.StallReadsAfter; after > 0 && c.nread.Load() >= after {
		<-c.gone
		return 0, ErrInjectedReset
	}
	d := c.draw(len(b), false)
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.reset {
		c.kill()
		return 0, ErrInjectedReset
	}
	n, err := c.Conn.Read(b)
	c.nread.Add(int64(n))
	if n > 0 && d.flip >= 0 && d.flip/8 < n {
		// Only corrupt a byte that actually arrived.
		b[d.flip/8] ^= 1 << (d.flip % 8)
	}
	return n, err
}

func (c *faultConn) Write(b []byte) (int, error) {
	if c.downed.Load() {
		return 0, ErrInjectedReset
	}
	d := c.draw(len(b), true)
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.reset {
		c.kill()
		return 0, ErrInjectedReset
	}
	if d.flip >= 0 {
		// Never mutate the caller's buffer: corrupt a copy.
		dup := append([]byte(nil), b...)
		dup[d.flip/8] ^= 1 << (d.flip % 8)
		b = dup
	}
	if d.truncate >= 0 {
		n := 0
		if d.truncate > 0 {
			n, _ = c.Conn.Write(b[:d.truncate])
		}
		c.kill()
		return n, ErrInjectedReset
	}
	if d.fragment > 0 {
		n, err := c.Conn.Write(b[:d.fragment])
		if err != nil {
			return n, err
		}
		m, err := c.Conn.Write(b[d.fragment:])
		return n + m, err
	}
	return c.Conn.Write(b)
}

func (c *faultConn) Close() error {
	if c.downed.Swap(true) {
		return nil
	}
	close(c.gone)
	return c.Conn.Close()
}
