package proxy

// What a fetch attempt leaves behind when a block fails to decode: the
// prefix it hands the next attempt, and where the receive loop stops
// counting. A block's RawLen is the one frame field no CRC covers, so a
// block that claims one byte fewer than it holds passes ReadBlock and is
// refused by the decoder ("output exceeds limit").

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/selective"
)

// alphabet is n bytes of a..z repeating: a block's first bytes say where
// in the file it came from.
func alphabet(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte(i%26)
	}
	return b
}

// gzipBlocks frames content as compressed gzip blocks of blockSize bytes.
// Block lie, when there is one, understates its RawLen by a byte.
func gzipBlocks(t *testing.T, content []byte, blockSize, lie int) []selective.Block {
	t.Helper()
	c := codec.MustNew(codec.Gzip, 0)
	var blocks []selective.Block
	for off := 0; off < len(content); off += blockSize {
		raw := content[off:min(off+blockSize, len(content))]
		payload, err := c.Compress(raw)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, selective.Block{Compressed: true, RawLen: len(raw), Payload: payload})
	}
	if lie >= 0 {
		blocks[lie].RawLen--
	}
	return blocks
}

// blockServer is a fake PXY3 server for content: it grants a resume offset
// at the block boundary below the one requested, as the real one does, and
// sends what blocksFor returns for the connection (counted from 1) from
// that block on, then an honest end frame.
func blockServer(t *testing.T, content []byte, blockSize int, blocksFor func(conn int) []selective.Block) string {
	var conns atomic.Int64
	return maliciousServer(t, func(conn net.Conn) {
		req, err := readRequest(bufio.NewReader(conn))
		if err != nil {
			return
		}
		start := int(req.Offset) / blockSize
		_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: uint64(len(content)), Scheme: codec.Gzip, Offset: uint64(start * blockSize)})
		for _, b := range blocksFor(int(conns.Add(1)))[start:] {
			_ = WriteBlock(conn, b)
		}
		_ = WriteEnd(conn, crcOf(content))
	})
}

// TestDecodeFailureLeavesAnInOrderPrefix: the bytes an attempt returns are
// the file's first bytes, whatever failed. Before the decoder owned the
// output, the receive loop appended block i+1 — already handed over when it
// learnt that block i had failed — behind block i-1.
func TestDecodeFailureLeavesAnInOrderPrefix(t *testing.T) {
	t.Run("block 0 of 3", func(t *testing.T) {
		content := alphabet(9000)
		blocks := gzipBlocks(t, content, 3000, 0)
		addr := blockServer(t, content, 3000, func(int) []selective.Block { return blocks })
		var stats FetchStats
		prefix, err := hardenedClient(addr).fetchOnce("x", codec.Gzip, ModeOnDemand, 1, nil, &stats, nil)
		if err == nil {
			t.Fatal("an attempt whose first block does not decode succeeded")
		}
		if len(prefix) != 0 {
			t.Fatalf("prefix after block 0 failed (%v) is %d bytes beginning %q, want none", err, len(prefix), prefix[:3])
		}
	})

	// With the paper's block size, through the retry loop: the second
	// attempt resumes behind the last block that really preceded the
	// failure and completes the file. A prefix of blocks 0 and 2 resumes at
	// block 2, fails the content CRC a full download later and needs a third
	// attempt from zero.
	t.Run("block 1 of 4, retried", func(t *testing.T) {
		const size = selective.BlockSize
		content := alphabet(4 * size)
		honest, lying := gzipBlocks(t, content, size, -1), gzipBlocks(t, content, size, 1)
		addr := blockServer(t, content, size, func(conn int) []selective.Block {
			if conn == 1 {
				return lying
			}
			return honest
		})
		cli := hardenedClient(addr)
		cli.MaxRetries = 4
		cli.RetryBaseDelay = time.Millisecond
		got, stats, err := cli.Fetch("x", codec.Gzip, ModeOnDemand)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content) {
			t.Fatal("fetched bytes differ from the file")
		}
		if stats.Attempts != 2 || stats.ResumedBytes != size {
			t.Errorf("fetch took %d attempts and resumed %d bytes, want 2 attempts resuming block 0's %d", stats.Attempts, stats.ResumedBytes, size)
		}
	})

	// A frame error is learnt by the receive loop itself, at once: the two
	// blocks handed over before it are still decoded and kept.
	t.Run("stream cut before block 3 of 4", func(t *testing.T) {
		content := alphabet(12000)
		blocks := gzipBlocks(t, content, 3000, -1)
		addr := maliciousServer(t, func(conn net.Conn) {
			if !consumeRequest(conn) {
				return
			}
			_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: 12000, Scheme: codec.Gzip})
			for _, b := range blocks[:3] {
				_ = WriteBlock(conn, b)
			}
		})
		var stats FetchStats
		prefix, err := hardenedClient(addr).fetchOnce("x", codec.Gzip, ModeOnDemand, 1, nil, &stats, nil)
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("err = %v, want ErrProtocol", err)
		}
		if !bytes.Equal(prefix, content[:9000]) {
			t.Fatalf("prefix is %d bytes, want the 9000 of blocks 0-2", len(prefix))
		}
	})
}

// TestDecodeVerdictPoint: the receive loop learns that block i failed after
// it has read and counted block i+2 and before it hands it over — never
// sooner or later, however the two goroutines are scheduled — so the blocks
// and wire bytes an attempt counts (the canonical trace's blocks= and
// wire=) are a function of what was sent. Run under -race -count=20 in CI.
func TestDecodeVerdictPoint(t *testing.T) {
	const size = 1000
	// wantWire[n][i]: FetchStats.WireBytes of an n-block attempt whose
	// block i fails, recorded from the client as it was when the receive
	// loop did the appending (a 22-byte header, 67-byte block frames, and
	// the 13-byte end frame when it is read before the verdict).
	wantWire := map[int][]int{
		1: {102},
		2: {169, 169},
		3: {223, 236, 236},
		4: {223, 290, 303, 303},
		5: {223, 290, 357, 370, 370},
	}
	for n := 1; n <= 5; n++ {
		content := alphabet(n * size)
		for i := 0; i < n; i++ {
			t.Run(fmt.Sprintf("n=%d/fail=%d", n, i), func(t *testing.T) {
				blocks := gzipBlocks(t, content, size, i)
				addr := blockServer(t, content, size, func(int) []selective.Block { return blocks })
				var stats FetchStats
				prefix, err := hardenedClient(addr).fetchOnce("x", codec.Gzip, ModeOnDemand, 1, nil, &stats, nil)
				if err == nil {
					t.Fatal("attempt succeeded")
				}
				if want := min(i+3, n); stats.BlocksTotal != want {
					t.Errorf("BlocksTotal = %d, want %d", stats.BlocksTotal, want)
				}
				if stats.WireBytes != wantWire[n][i] {
					t.Errorf("WireBytes = %d, want %d", stats.WireBytes, wantWire[n][i])
				}
				if !bytes.Equal(prefix, content[:i*size]) {
					t.Errorf("prefix is %d bytes, want the %d before block %d", len(prefix), i*size, i)
				}
			})
		}
	}
}
