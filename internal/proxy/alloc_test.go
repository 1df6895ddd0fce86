//go:build !race

package proxy

// Allocation gates for the pooled dataplane. These assert the O(1)
// buffers-per-block property the buffer pool exists to provide; they are
// excluded under the race detector, which instruments allocations and
// would make the counts meaningless.

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/selective"
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

// TestShardForZeroAllocs: shardFor is the first thing every cache lookup
// does, so the whole hit path pays for whatever it allocates.
func TestShardForZeroAllocs(t *testing.T) {
	c := newBlockCache(1<<20, 16, nil)
	k := cacheKey{name: "page-07.html", gen: 3, scheme: codec.Bzip2, fp: "dyn:v2:class1"}
	var sink *cacheShard
	if allocs := testing.AllocsPerRun(1000, func() { sink = c.shardFor(k) }); allocs != 0 {
		t.Errorf("shardFor allocates %.1f objects per call, want 0", allocs)
	}
	_ = sink
}
