package selective_test

// Determinism tests for the parallel selective encoder: block contents land
// at fixed indices, so the container bytes are a pure function of the input
// and codec — never of whether (or where) the per-block work ran.

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/selective"
	"repro/internal/workload"
)

// spawnAll runs every task on its own goroutine: maximal interleaving.
func spawnAll(task func()) bool {
	go task()
	return true
}

// collect runs the block loop under a spawn policy and gathers what it
// emits, as the whole-buffer entry points do.
func collect(data []byte, c codec.Codec, d selective.Decider, blockSize int, spawn func(func()) bool) (*selective.Encoded, error) {
	e := &selective.Encoded{Scheme: c.Scheme()}
	compress := func(_ int, raw []byte) ([]byte, error) { return c.Compress(raw) }
	err := selective.EncodeBlocksParallel(data, compress, d, blockSize, spawn, func(b selective.Block) {
		e.Blocks = append(e.Blocks, b)
	})
	return e, err
}

// TestEncodeParallelMatchesSequential compares the goroutine-spawning path
// against the inline path, and a saturated spawn (always refusing, forcing
// inline fallback) against both.
func TestEncodeParallelMatchesSequential(t *testing.T) {
	data := workload.Generate(workload.ClassSource, 700*1000, 21)
	c := codec.MustNew(codec.Gzip, 0)
	d := selective.ModelDecider{}

	seq, err := selective.Encode(data, c, d)
	if err != nil {
		t.Fatal(err)
	}

	par, err := collect(data, c, d, selective.BlockSize, spawnAll)
	if err != nil {
		t.Fatal(err)
	}

	spawnNone := func(task func()) bool { return false }
	inline, err := collect(data, c, d, selective.BlockSize, spawnNone)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(par.Bytes(), seq.Bytes()) {
		t.Fatal("parallel encode bytes differ from sequential")
	}
	if !bytes.Equal(inline.Bytes(), seq.Bytes()) {
		t.Fatal("saturated-spawn encode bytes differ from sequential")
	}

	dec, err := selective.Decode(par.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("parallel container does not round trip")
	}
}

// TestEncodeBlocksParallelOrdering: with many small blocks and maximal
// goroutine interleaving, block order and per-block flags must still match
// the sequential encoder exactly.
func TestEncodeBlocksParallelOrdering(t *testing.T) {
	data := workload.Generate(workload.ClassMail, 256*1024, 4)
	c := codec.MustNew(codec.Zlib, 6)
	d := selective.AlwaysCompress{}
	const blockSize = 8 * 1024

	seq, err := selective.EncodeBlocks(data, c, d, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	par, err := collect(data, c, d, blockSize, spawnAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Blocks) != len(seq.Blocks) {
		t.Fatalf("parallel produced %d blocks, sequential %d", len(par.Blocks), len(seq.Blocks))
	}
	for i := range par.Blocks {
		if par.Blocks[i].Compressed != seq.Blocks[i].Compressed ||
			!bytes.Equal(par.Blocks[i].Payload, seq.Blocks[i].Payload) {
			t.Fatalf("block %d differs between parallel and sequential", i)
		}
	}
}

// failAt is a codec whose Compress fails on the block that starts with a
// marker byte; every other block goes to the real codec.
type failAt struct {
	codec.Codec
	marker byte
}

var errInjected = errors.New("injected compress failure")

func (f failAt) Compress(data []byte) ([]byte, error) {
	if data[0] == f.marker {
		return nil, errInjected
	}
	return f.Codec.Compress(data)
}

// TestEncodeBlocksParallelEmitStopsAtFailure: when block k fails, exactly
// blocks 0..k-1 are emitted, in order, whatever the interleaving, and the
// caller gets block k's error.
func TestEncodeBlocksParallelEmitStopsAtFailure(t *testing.T) {
	const blockSize, n, k = 4 * 1024, 12, 7
	data := workload.Generate(workload.ClassMail, n*blockSize, 9)
	for i := 0; i < n; i++ {
		data[i*blockSize] = byte(i) // tag each block with its index
	}
	c := failAt{codec.MustNew(codec.Zlib, 6), k}
	want, err := selective.EncodeBlocks(data[:k*blockSize], c, selective.AlwaysCompress{}, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, spawn := range []func(func()) bool{nil, spawnAll} {
		got, err := collect(data, c, selective.AlwaysCompress{}, blockSize, spawn)
		if !errors.Is(err, errInjected) {
			t.Fatalf("err = %v, want the injected failure", err)
		}
		if len(got.Blocks) != k {
			t.Fatalf("%d blocks emitted before the failure at block %d", len(got.Blocks), k)
		}
		for i, b := range got.Blocks {
			if !bytes.Equal(b.Payload, want.Blocks[i].Payload) {
				t.Fatalf("emitted block %d is not block %d of the stream", i, i)
			}
		}
	}
}

// TestEncodeBlocksParallelPassesIndex: the compress step is handed each
// block that reaches the codec with that block's index — every block the
// decider did not send raw first, and no other — whatever the interleaving.
func TestEncodeBlocksParallelPassesIndex(t *testing.T) {
	const blockSize, n = 16 * 1024, 9
	data := workload.Generate(workload.ClassHTML, n*blockSize-500, 3)
	rand.New(rand.NewSource(3)).Read(data[4*blockSize : 6*blockSize]) // two blocks the probe sends raw
	c := codec.MustNew(codec.Gzip, 0)
	for _, spawn := range []func(func()) bool{nil, spawnAll} {
		var mu sync.Mutex
		handed := map[int]bool{}
		compress := func(i int, raw []byte) ([]byte, error) {
			if !bytes.Equal(raw, data[i*blockSize:min((i+1)*blockSize, len(data))]) {
				t.Errorf("block %d handed the bytes of another block", i)
			}
			mu.Lock()
			handed[i] = true
			mu.Unlock()
			return c.Compress(raw)
		}
		var blocks []selective.Block
		err := selective.EncodeBlocksParallel(data, compress, selective.PaperDecider{}, blockSize, spawn, func(b selective.Block) {
			blocks = append(blocks, b)
		})
		if err != nil {
			t.Fatal(err)
		}
		probed := 0
		for i, b := range blocks {
			if reached := !b.Probed; handed[i] != reached {
				t.Errorf("block %d: handed to compress %v, probed raw %v", i, handed[i], b.Probed)
			}
			if b.Probed {
				probed++
			}
		}
		if len(blocks) != n || probed != 2 {
			t.Fatalf("%d blocks, %d probed raw; want %d and the 2 random ones", len(blocks), probed, n)
		}
	}
}
