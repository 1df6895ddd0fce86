package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/checksum"
	"repro/internal/codec"
	"repro/internal/proxy"
	"repro/internal/selective"
)

// FuzzReadPeerRequest throws arbitrary bytes at the PXY-P request parser:
// bad magic, truncated frames, oversized name/fingerprint lengths and CRC
// damage must produce errors, never a panic or an over-allocation; frames
// the parser accepts must survive a write/read round trip unchanged.
func FuzzReadPeerRequest(f *testing.F) {
	key := proxy.ArtifactKey{Name: "doc.xml", Gen: 3, Scheme: codec.Gzip, FP: "PaperDecider{}"}
	frame := func(op byte, k proxy.ArtifactKey) []byte {
		var buf bytes.Buffer
		_ = writePeerRequest(&buf, peerRequest{Op: op, Key: k})
		return buf.Bytes()
	}
	fetch := frame(peerOpFetch, key)
	f.Add(fetch)
	f.Add(frame(peerOpPut, key))
	f.Add(frame(peerOpInval, proxy.ArtifactKey{Name: "doc.xml", Gen: 4}))
	// Oversize name length, oversize fingerprint length (name "a", gen 0,
	// scheme 1, fpLen 0xFFFF), bad CRC, truncated tail.
	f.Add([]byte("PXYP\x01\xff\xff"))
	f.Add([]byte("PXYP\x01\x00\x01a\x00\x00\x00\x00\x00\x00\x00\x00\x01\xff\xff"))
	f.Add(append(fetch[:len(fetch)-1:len(fetch)-1], fetch[len(fetch)-1]^0xFF))
	f.Add(fetch[:len(fetch)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := readPeerRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(req.Key.Name) > maxPeerName || len(req.Key.FP) > maxPeerFP {
			t.Fatalf("accepted name of %d bytes / fp of %d bytes, caps are %d / %d",
				len(req.Key.Name), len(req.Key.FP), maxPeerName, maxPeerFP)
		}
		var buf bytes.Buffer
		if err := writePeerRequest(&buf, req); err != nil {
			t.Fatalf("re-encode of accepted request failed: %v", err)
		}
		back, err := readPeerRequest(&buf)
		if err != nil {
			t.Fatalf("re-decode of accepted request failed: %v", err)
		}
		if back != req {
			t.Fatalf("round trip changed request: %+v != %+v", back, req)
		}
	})
}

// TestArtifactWireCompat pins the PXY-P block stream to the bytes the
// pre-merge writer (cluster.writePeerBlocks, before PXY-P adopted PXY3's
// frame codec) emitted for the same artifact, so a mixed ring of old and
// new nodes interoperates: the literal was captured from that writer.
func TestArtifactWireCompat(t *testing.T) {
	const want = "010000012c000000107d8ef720636f6d707265737365642d6279746573" +
		"000000000900000009c15b13467261772d6279746573" +
		"ff0000000200000000d5864b85"
	blocks := []selective.Block{
		{Compressed: true, RawLen: 300, Payload: []byte("compressed-bytes")},
		{RawLen: 9, Payload: []byte("raw-bytes")},
	}
	var buf bytes.Buffer
	if err := writeArtifact(&buf, blocks); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("peer block stream changed on the wire:\n got %s\nwant %s", got, want)
	}
	back, err := readArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(blocks) {
		t.Fatalf("decoded %d blocks, want %d", len(back), len(blocks))
	}
	for i, b := range back {
		if b.Compressed != blocks[i].Compressed || b.RawLen != blocks[i].RawLen || !bytes.Equal(b.Payload, blocks[i].Payload) {
			t.Errorf("block %d round trip: got %+v, want %+v", i, b, blocks[i])
		}
		// Artifacts outlive the exchange: the cache's byte accounting needs
		// exact-size payloads, not pool-class-sized read buffers.
		if cap(b.Payload) > len(b.Payload)+64 {
			t.Errorf("block %d payload has cap %d for len %d; pooled buffer leaked into the artifact", i, cap(b.Payload), len(b.Payload))
		}
	}
}

// rawFrame hand-builds a block frame header+payload with arbitrary (lying)
// length fields and a valid payload CRC.
func rawFrame(flag byte, rawLen, payLen uint32, payload []byte) []byte {
	hdr := make([]byte, proxy.BlockHeaderLen, proxy.BlockHeaderLen+len(payload))
	hdr[0] = flag
	binary.BigEndian.PutUint32(hdr[1:5], rawLen)
	binary.BigEndian.PutUint32(hdr[5:9], payLen)
	binary.BigEndian.PutUint32(hdr[9:13], checksum.CRC32(payload))
	return append(hdr, payload...)
}

// endlessFrames is a peer that never sends an end frame: the same
// one-byte raw block, forever.
type endlessFrames struct {
	frame []byte
	off   int
}

func (e *endlessFrames) Read(p []byte) (int, error) {
	n := copy(p, e.frame[e.off:])
	e.off = (e.off + n) % len(e.frame)
	return n, nil
}

// TestHostilePeerArtifactStream: the parts of the block stream that stay
// PXY-P's own — the trailer's block count, the maxPeerBlocks bound — and
// the shared codec's raw-length rule must each refuse a lying peer with
// ErrPeerProtocol, without allocating anywhere near what the peer claims.
func TestHostilePeerArtifactStream(t *testing.T) {
	one := rawFrame(0x00, 1, 1, []byte("x"))
	var wrongCount bytes.Buffer
	wrongCount.Write(one)
	wrongCount.Write(one)
	_ = proxy.WriteEnd(&wrongCount, 3) // claims 3, carried 2

	cases := []struct {
		name     string
		stream   io.Reader
		maxAlloc uint64
	}{
		{"trailer count != blocks carried", &wrongCount, 64 << 10},
		// maxPeerBlocks one-byte blocks cost a slice header, a tiny payload
		// and — under the race detector, which defeats the buffer pool — a
		// fresh pooled read buffer each; an unbounded reader never returns.
		{"more than maxPeerBlocks frames", &endlessFrames{frame: one}, 16 << 20},
		// The 1 MiB raw-length claim must be refused before it sizes anything.
		{"raw block with payLen != rawLen", bytes.NewReader(rawFrame(0x00, 1<<20, 1, []byte("x"))), 64 << 10},
	}
	for _, tc := range cases {
		var m1, m2 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m1)
		blocks, err := readArtifact(tc.stream)
		runtime.ReadMemStats(&m2)
		if !errors.Is(err, ErrPeerProtocol) {
			t.Errorf("%s: err = %v, want ErrPeerProtocol", tc.name, err)
		}
		if blocks != nil {
			t.Errorf("%s: returned %d blocks alongside the error", tc.name, len(blocks))
		}
		if delta := m2.TotalAlloc - m1.TotalAlloc; delta > tc.maxAlloc {
			t.Errorf("%s: allocated %d bytes rejecting the stream, bound %d", tc.name, delta, tc.maxAlloc)
		}
	}
}
