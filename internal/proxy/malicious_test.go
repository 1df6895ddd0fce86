package proxy

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/selective"
)

// maliciousServer runs handler on every accepted connection; handler plays
// the role of a lying or broken proxy.
func maliciousServer(t *testing.T, handler func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				handler(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// hardenedClient is a default (no-retry) client with a deadline so a
// malicious peer can stall but never hang the test.
func hardenedClient(addr string) *Client {
	cli := NewClient(addr)
	cli.Timeout = 10 * time.Second
	return cli
}

// consumeRequest absorbs the client's request so writes cannot race it.
func consumeRequest(conn net.Conn) bool {
	_, err := readRequest(bufio.NewReader(conn))
	return err == nil
}

// fetchAllocDelta runs one Fetch and returns (error, bytes allocated).
// TotalAlloc is cumulative, so the delta is GC-proof.
func fetchAllocDelta(t *testing.T, cli *Client) (error, uint64) {
	t.Helper()
	var m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m1)
	_, _, err := cli.Fetch("x", codec.Gzip, ModeRaw)
	runtime.ReadMemStats(&m2)
	return err, m2.TotalAlloc - m1.TotalAlloc
}

// TestMaliciousLyingRawSize: a header claiming a 1 TB file must be
// rejected as a protocol error without allocating anything proportional
// to the claim.
func TestMaliciousLyingRawSize(t *testing.T) {
	addr := maliciousServer(t, func(conn net.Conn) {
		if !consumeRequest(conn) {
			return
		}
		_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: 1 << 40, Scheme: codec.Gzip})
	})
	err, allocated := fetchAllocDelta(t, hardenedClient(addr))
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
	if isTransient(err) {
		t.Error("a CRC-clean oversized claim should be a permanent error")
	}
	if allocated > 16<<20 {
		t.Errorf("allocated %d bytes for a lying header", allocated)
	}
}

// TestMaliciousRawSizeWithinCap: a claim inside MaxFetchBytes must still
// not be trusted for preallocation — the server sends nothing, so the
// fetch must fail having allocated no more than the clamp, not the
// claimed half-gigabyte.
func TestMaliciousRawSizeWithinCap(t *testing.T) {
	addr := maliciousServer(t, func(conn net.Conn) {
		if !consumeRequest(conn) {
			return
		}
		_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: 1 << 29, Scheme: codec.Gzip})
	})
	err, allocated := fetchAllocDelta(t, hardenedClient(addr))
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
	if allocated > 16<<20 {
		t.Errorf("allocated %d bytes against a %d-byte claim; prealloc clamp failed", allocated, 1<<29)
	}
}

// TestMaliciousLyingBlockRawLen: a block header claiming a decompressed
// size over the per-block cap must be refused before Decompress sees it.
func TestMaliciousLyingBlockRawLen(t *testing.T) {
	payload := []byte("tiny")
	addr := maliciousServer(t, func(conn net.Conn) {
		if !consumeRequest(conn) {
			return
		}
		_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: 1 << 20, Scheme: codec.Gzip})
		_ = WriteBlock(conn, selective.Block{Compressed: true, RawLen: 0xFFFF0000, Payload: payload})
	})
	err, allocated := fetchAllocDelta(t, hardenedClient(addr))
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
	if allocated > 16<<20 {
		t.Errorf("allocated %d bytes for a lying RawLen", allocated)
	}
}

// TestMaliciousOverpromisedBlocks: blocks whose cumulative claimed raw
// size exceeds the header's total must stop the stream.
func TestMaliciousOverpromisedBlocks(t *testing.T) {
	addr := maliciousServer(t, func(conn net.Conn) {
		if !consumeRequest(conn) {
			return
		}
		_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: 1000, Scheme: codec.Gzip})
		chunk := make([]byte, 900)
		for i := 0; i < 4; i++ {
			if err := WriteBlock(conn, selective.Block{RawLen: 900, Payload: chunk}); err != nil {
				return
			}
		}
	})
	if _, _, err := hardenedClient(addr).Fetch("x", codec.Gzip, ModeRaw); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

// TestMaliciousRawBlockLenMismatch: raw-flag blocks whose payload length
// disagrees with the claimed RawLen must be refused at the frame boundary.
// Before this check, RawLen=0 blocks with near-cap payloads advanced the
// rawPromised budget by zero while appending megabytes per block — an
// unbounded-memory bypass of MaxFetchBytes.
func TestMaliciousRawBlockLenMismatch(t *testing.T) {
	big := make([]byte, maxBlockWire-1)
	addr := maliciousServer(t, func(conn net.Conn) {
		if !consumeRequest(conn) {
			return
		}
		_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: 1 << 20, Scheme: codec.Gzip})
		// Each frame claims zero raw bytes but carries ~2 MiB.
		for i := 0; i < 64; i++ {
			if err := WriteBlock(conn, selective.Block{RawLen: 0, Payload: big}); err != nil {
				return
			}
		}
	})
	err, allocated := fetchAllocDelta(t, hardenedClient(addr))
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
	if allocated > 16<<20 {
		t.Errorf("allocated %d bytes for RawLen-lying raw blocks", allocated)
	}
}

// TestMaliciousGarbageBlockCRC: a corrupted payload CRC fails the frame
// check, not the decompressor.
func TestMaliciousGarbageBlockCRC(t *testing.T) {
	payload := []byte("payload bytes")
	addr := maliciousServer(t, func(conn net.Conn) {
		if !consumeRequest(conn) {
			return
		}
		_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: uint64(len(payload)), Scheme: codec.Gzip})
		var hdr [BlockHeaderLen]byte
		hdr[0] = blockFlagRaw
		binary.BigEndian.PutUint32(hdr[1:5], uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[5:9], uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[9:13], crcOf(payload)^0xFFFF)
		_, _ = conn.Write(hdr[:])
		_, _ = conn.Write(payload)
	})
	if _, _, err := hardenedClient(addr).Fetch("x", codec.Gzip, ModeRaw); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

// TestMaliciousEarlyEOF: a header followed by silence (connection close)
// must surface as a clean protocol error, not a hang.
func TestMaliciousEarlyEOF(t *testing.T) {
	addr := maliciousServer(t, func(conn net.Conn) {
		if !consumeRequest(conn) {
			return
		}
		_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: 10_000, Scheme: codec.Gzip})
	})
	if _, _, err := hardenedClient(addr).Fetch("x", codec.Gzip, ModeRaw); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

// TestMaliciousTruncatedPayload: a block header promising more payload
// than the server delivers must error on the short read.
func TestMaliciousTruncatedPayload(t *testing.T) {
	addr := maliciousServer(t, func(conn net.Conn) {
		if !consumeRequest(conn) {
			return
		}
		_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: 500, Scheme: codec.Gzip})
		var hdr [BlockHeaderLen]byte
		hdr[0] = blockFlagRaw
		binary.BigEndian.PutUint32(hdr[1:5], 500)
		binary.BigEndian.PutUint32(hdr[5:9], 500)
		_, _ = conn.Write(hdr[:])
		_, _ = conn.Write(make([]byte, 20)) // then close
	})
	if _, _, err := hardenedClient(addr).Fetch("x", codec.Gzip, ModeRaw); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

// TestMaliciousCorruptHeader: a bit-flipped response header must fail its
// CRC — and, unlike an honest status, be treated as transient link damage.
func TestMaliciousCorruptHeader(t *testing.T) {
	addr := maliciousServer(t, func(conn net.Conn) {
		if !consumeRequest(conn) {
			return
		}
		var buf [GetHeaderLen]byte
		buf[0] = statusNotFound // honest-looking status...
		// ...but no valid CRC: all-zero trailer will not match.
		_, _ = conn.Write(buf[:])
	})
	_, _, err := hardenedClient(addr).Fetch("x", codec.Gzip, ModeRaw)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
	if errors.Is(err, ErrNotFound) {
		t.Error("corrupt header was trusted as an honest not-found")
	}
	if !isTransient(err) {
		t.Error("a CRC-failed header is link damage and should be retryable")
	}
}

// TestMaliciousGrantedOffsetBeyondRequest: a server granting a resume
// offset past what the client asked for is lying and must be refused.
func TestMaliciousGrantedOffsetBeyondRequest(t *testing.T) {
	addr := maliciousServer(t, func(conn net.Conn) {
		if !consumeRequest(conn) {
			return
		}
		_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: 10_000, Scheme: codec.Gzip, Offset: 9_000})
	})
	if _, _, err := hardenedClient(addr).Fetch("x", codec.Gzip, ModeRaw); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}
