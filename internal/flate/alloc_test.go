//go:build !race

package flate_test

// Allocation gates for the pooled compression plane. The encoder state
// (matcher, token buffer, frequency/code tables, bit writer) is reused via
// sync.Pool, so a steady-state compression allocates O(1) objects — the
// output buffer plus pool bookkeeping — regardless of how many 16k-token
// blocks the input spans. Excluded under the race detector, whose
// instrumentation inflates the counts.

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	ours "repro/internal/flate"
	"repro/internal/lz77"
	"repro/internal/workload"
)

// TestDeflateSteadyStateAllocs: the seed encoder allocated thousands of
// objects per 512 KiB op (fresh matcher, per-block trees, per-symbol
// scratch); the pooled path must stay within a fixed small budget. The
// bound of 80 is ~6x headroom over the measured ~12 for a 256 KiB input
// (dominated by the output buffer growth) and over 100x below the seed.
func TestDeflateSteadyStateAllocs(t *testing.T) {
	data := workload.Generate(workload.ClassSource, 256*1024, 7)
	// Warm every pool on this goroutine.
	if _, err := ours.GzipCompress(data, 9); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ours.GzipCompress(data, 9); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 80 {
		t.Errorf("GzipCompress allocates %.1f objects per 256 KiB op, want <= 80 (encoder state not pooled?)", allocs)
	}
}

// TestGzipCompressAllocatesItsOutput: a block that does not compress
// allocates its stream once, at its exact size, plus pool bookkeeping —
// not a half-size guess that the stream then regrows, and no spare
// capacity for the artifact cache to hold. The allocator charges a large
// buffer in whole pages, so the bound is what it charges for a buffer of
// the stream's size, measured the same way, plus 1 KiB. The collector is
// off and one processor runs while it measures, so that every call finds
// the pooled buffers the one before it put back.
func TestGzipCompressAllocatesItsOutput(t *testing.T) {
	data := make([]byte, 128000)
	rand.New(rand.NewSource(31)).Read(data)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 10
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	var sink []byte
	for _, level := range []int{1, 6, 9} {
		out, err := ours.GzipCompress(data, level) // warm every pool
		if err != nil {
			t.Fatal(err)
		}
		buffer := allocated(func() { sink = make([]byte, len(out)) })
		per := allocated(func() {
			if sink, err = ours.GzipCompress(data, level); err != nil {
				t.Fatal(err)
			}
		})
		if per > buffer+1024 {
			t.Errorf("-%d: GzipCompress of %d random bytes allocates %d bytes for a %d-byte stream (a buffer of its size: %d), want at most 1 KiB more", level, len(data), per, len(out), buffer)
		}
	}
	_ = sink
}

// TestMatcherPoolReuse: a recycled matcher must behave identically to a
// fresh one at its level.
func TestMatcherPoolReuse(t *testing.T) {
	data := workload.Generate(workload.ClassWebLog, 96*1024, 9)
	for level := 1; level <= 9; level++ {
		fresh, err := lz77.NewMatcher(level)
		if err != nil {
			t.Fatal(err)
		}
		var want []lz77.Token
		fresh.Tokenize(data, func(tok lz77.Token) { want = append(want, tok) })

		m, err := lz77.GetMatcher(level)
		if err != nil {
			t.Fatal(err)
		}
		lz77.PutMatcher(m) // recycle once so the pooled path is exercised
		m, err = lz77.GetMatcher(level)
		if err != nil {
			t.Fatal(err)
		}
		var got []lz77.Token
		m.Tokenize(data, func(tok lz77.Token) { got = append(got, tok) })
		lz77.PutMatcher(m)

		if len(got) != len(want) {
			t.Fatalf("level %d: pooled matcher emitted %d tokens, fresh %d", level, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("level %d: token %d differs: pooled %+v fresh %+v", level, i, got[i], want[i])
			}
		}
	}
}
