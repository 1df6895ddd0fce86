package simnet

import (
	"fmt"
	"time"
)

// transmitter is one serialization point on a network's medium: a link
// and the virtual instant it finishes its current transmission, which
// later writes queue behind (serialization, not loss). Every endpoint
// embeds its own — per-connection pacing, which models independent client
// radios — and writes on it unless its listener has a line: a node's
// single physical transmitter (its NIC or radio), shared by every
// server-side endpoint accepted there, so N concurrent responses from one
// node queue behind each other instead of each enjoying the full link
// rate. Either way the write follows the network's schedule. All fields
// are guarded by the clock's lock.
type transmitter struct {
	link     Link
	nextFree time.Duration
}

// SetLine attaches a shared transmit line at the network's link to the
// named listener: from then on, connections accepted there serialize
// their server-to-client writes on that line. Jitter for each
// transmission is still drawn from the writing endpoint's own seeded
// stream, so per-connection draw sequences remain deterministic. Existing
// connections are unaffected; only connections dialed after SetLine join
// the line.
func (nw *Network) SetLine(name string) error {
	nw.clock.mu.Lock()
	defer nw.clock.mu.Unlock()
	l, ok := nw.listeners[name]
	if !ok || l.closed {
		return fmt.Errorf("simnet: no listener %q to attach a line to", name)
	}
	l.line = &transmitter{link: nw.link}
	return nil
}
