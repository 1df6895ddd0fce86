//go:build !race

package proxy

// Allocation gates for the pooled dataplane. These assert the O(1)
// buffers-per-block property the buffer pool exists to provide; they are
// excluded under the race detector, which instruments allocations and
// would make the counts meaningless.

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/proxy/faultconn"
	"repro/internal/selective"
	"repro/internal/workload"
)

// TestReadBlockPooledAllocs: once the pool is warm, reading a verified
// 128 KiB block must not allocate a fresh payload. The budget of 2 covers
// the slice-header box sync.Pool needs on Put; the payload buffer itself
// (the 128 KiB that used to be a per-block make) must come from the pool.
func TestReadBlockPooledAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5}, 128*1024)
	var frame bytes.Buffer
	if err := WriteBlock(&frame, selective.Block{RawLen: len(payload), Payload: payload}); err != nil {
		t.Fatal(err)
	}
	wire := frame.Bytes()

	// Warm the pool's size class.
	r := bytes.NewReader(wire)
	b, _, ok, err := ReadBlock(r)
	if err != nil || !ok {
		t.Fatalf("warmup ReadBlock: ok=%v err=%v", ok, err)
	}
	codec.PutBuf(b.Payload)

	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(wire)
		b, _, ok, err := ReadBlock(r)
		if err != nil || !ok {
			t.Fatalf("ReadBlock: ok=%v err=%v", ok, err)
		}
		codec.PutBuf(b.Payload)
	})
	if allocs > 2 {
		t.Errorf("ReadBlock allocates %.1f objects per block, want <= 2 (payload not pooled?)", allocs)
	}
}

// TestGetBufRecycles pins the pool contract the dataplane relies on:
// capacity classes round up, and a returned buffer is handed out again.
func TestGetBufRecycles(t *testing.T) {
	b := codec.GetBuf(100_000)
	if cap(b) < 100_000 {
		t.Fatalf("GetBuf(100000) cap = %d", cap(b))
	}
	b = append(b, 1, 2, 3)
	codec.PutBuf(b)
	c := codec.GetBuf(100_000)
	if len(c) != 0 {
		t.Fatalf("recycled buffer has len %d, want 0", len(c))
	}
	if cap(c) < 100_000 {
		t.Fatalf("recycled buffer cap = %d", cap(c))
	}
}

// TestCacheHitZeroAllocs: every warm fetch starts at store.get, so the
// whole hit path pays for whatever the lookup allocates — hashing the key,
// a dynamic decider's 200-byte fingerprint included, and moving the entry
// to the front of the LRU.
func TestCacheHitZeroAllocs(t *testing.T) {
	st := newStore(1<<20, newMetrics(obs.NewRegistry()))
	k := ArtifactKey{Name: "page-07.html", Gen: 3, Scheme: codec.Bzip2, FP: strings.Repeat("dyn:v2:c1;", 20)}
	st.admit(k, blocksOfSize(1000))
	hit := false
	if allocs := testing.AllocsPerRun(1000, func() { _, hit = st.get(k) }); allocs != 0 {
		t.Errorf("store.get allocates %.1f objects per hit, want 0", allocs)
	}
	if !hit {
		t.Fatal("the key was not cached: the lookup measured was a miss")
	}
}

// TestCorruptBlockAllocatesNoDestination: the RawLen of a block frame is
// the one field no CRC covers, so a bit flipped there reaches the decoder
// as a wrong size limit, and the decode fails. The block was being decoded
// onto the tail of the attempt's output buffer, so the failure must cost
// nothing block-sized: no scratch destination, and the pooled payload goes
// back. A seeded faultconn flips one bit of RawLen on every connection;
// the fetches, all of them failing, allocate no block-sized memory beyond
// the output buffer an attempt reserves for its caller (RawSize bytes,
// never pooled).
func TestCorruptBlockAllocatesNoDestination(t *testing.T) {
	raw := workload.Generate(workload.ClassXML, 1<<17-1, 18) // 17 set bits: half of all flips shrink it
	c := codec.MustNew(codec.Compress, 0)
	payload, err := c.Compress(raw)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [BlockHeaderLen]byte
	hdr[0] = blockFlagCompressed
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(raw)))
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[9:13], crcOf(payload))
	plan := faultconn.Plan{Seed: 18, BitFlipProb: 1}
	var conns atomic.Int64
	addr := maliciousServer(t, func(conn net.Conn) {
		if !consumeRequest(conn) {
			return
		}
		_ = writeGetHeader(conn, getHeader{Status: statusOK, RawSize: uint64(len(raw)), Scheme: codec.Compress})
		_, _ = conn.Write(hdr[:1])
		_, _ = plan.Wrap(conn, conns.Add(1)).Write(hdr[1:5]) // the damaged field
		_, _ = conn.Write(hdr[5:])
		_, _ = conn.Write(payload)
		_ = WriteEnd(conn, crcOf(raw))
	})
	cli := hardenedClient(addr)
	fetch := func() {
		if _, _, err := cli.Fetch("x", codec.Compress, ModeRaw); err == nil {
			t.Fatal("a fetch with a damaged RawLen succeeded")
		}
	}

	// One P and no collection, so that what goes back to a pool is what
	// the next fetch takes out of it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 16; i++ {
		fetch() // every size class a shrunken RawLen can land in gets its buffer
	}
	const runs = 64
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	for i := 0; i < runs; i++ {
		fetch()
	}
	runtime.ReadMemStats(&m2)
	if perFetch, want := int(m2.TotalAlloc-m1.TotalAlloc)/runs, len(raw)+24<<10; perFetch > want {
		t.Errorf("a fetch refused for a corrupt block allocates %d bytes, want <= %d: a failed decode is costing a buffer", perFetch, want)
	}
}
