package simnet

import (
	"io"
	"net"
	"testing"
	"time"
)

// TestLineSerializesNodeWrites: with a shared line on the listener, two
// concurrent 1 MB responses from one node must serialize on the node's
// transmitter — both finish around 2 virtual seconds at 1 MB/s, not 1 —
// whereas per-connection pacing (no line) would let each response enjoy
// the full rate in parallel.
func TestLineSerializesNodeWrites(t *testing.T) {
	c := NewClock()
	link := Link{BytesPerSec: 1e6, Latency: time.Millisecond}
	nw := NewNetwork(c, link)
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetLine("srv"); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1<<20)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for off := 0; off < len(payload); off += 64 << 10 {
					if _, err := conn.Write(payload[off : off+64<<10]); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	waitAcceptorParked(t, c, ln)
	finished := make(chan time.Duration, 2)
	c.Run(func() {
		for i := 0; i < 2; i++ {
			c.Go(func() {
				conn, err := nw.Dial("srv")
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(conn)
				if err != nil || len(got) != len(payload) {
					t.Errorf("read %d bytes, err %v", len(got), err)
				}
				finished <- c.Elapsed() // before Close's marker moves the clock
				conn.Close()
			})
		}
	})
	a, b := <-finished, <-finished
	ln.Close()
	lo, hi := 1900*time.Millisecond, 2100*time.Millisecond
	for _, e := range []time.Duration{a, b} {
		if e < lo || e > hi {
			t.Fatalf("transfer finished at %v, want ~[%v, %v] (serialized on the line)", e, lo, hi)
		}
	}
}

// TestSetLineUnknownListener: attaching a line to an unbound name fails.
func TestSetLineUnknownListener(t *testing.T) {
	nw := NewNetwork(NewClock(), Link{})
	if err := nw.SetLine("nosuch"); err == nil {
		t.Fatal("SetLine on unbound name succeeded")
	}
}
