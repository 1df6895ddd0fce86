//go:build !race

package codec

// Steady-state allocation gates for the codec kernels' pooled workspaces.
// Excluded under the race detector, whose instrumentation changes the
// counts.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/workload"
)

// perOp reports the heap bytes and objects one call of f allocates, on
// average, once a warm-up call has filled whatever pools f draws from.
// The collector is off meanwhile, and the test keeps to one P: a cycle
// would empty the pools, and sync.Pool hands a goroutine that has moved to
// another P a new workspace — either would charge a workspace to the run
// it interrupted.
func perOp(f func()) (bytes, allocs float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	const runs = 20
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m2)
	return float64(m2.TotalAlloc-m1.TotalAlloc) / runs, float64(m2.Mallocs-m1.Mallocs) / runs
}

// TestNewAllocatesNothing: the client makes a codec on every attempt, so
// New hands out one that costs no allocation, whatever the scheme and level.
func TestNewAllocatesNothing(t *testing.T) {
	for s := Gzip; s <= Zlib; s++ {
		for level := 0; level <= 16; level++ {
			if _, err := New(s, level); err != nil {
				continue
			}
			if n := testing.AllocsPerRun(100, func() { _, _ = New(s, level) }); n != 0 {
				t.Errorf("New(%v, %d) allocates %.1f objects, want 0", s, level, n)
			}
		}
	}
}

// TestDecompressIntoSteadyStateAllocs: decoding a block into a buffer
// that already has room — what the client does with every block it is
// sent — allocates nothing that grows with the block or with a codec's
// tables: at most one small object (the deflate containers' byte reader),
// whatever the scheme and size. The bound is what the decoders do, not a
// margin over it: a one-byte buffer that a header check moved to the heap,
// once per block, went through a looser one unseen.
func TestDecompressIntoSteadyStateAllocs(t *testing.T) {
	for _, s := range []Scheme{Gzip, Compress, Bzip2, Zlib} {
		for _, size := range []int{4 << 10, 128 << 10} {
			t.Run(fmt.Sprintf("%v/%d", s, size), func(t *testing.T) {
				c := MustNew(s, 0)
				raw := workload.Generate(workload.ClassXML, size, 18)
				comp, err := c.Compress(raw)
				if err != nil {
					t.Fatal(err)
				}
				dst := make([]byte, 0, size)
				bytes, allocs := perOp(func() {
					out, err := DecompressInto(c, dst, comp, size)
					if err != nil || len(out) != size {
						t.Fatalf("DecompressInto: %d bytes, err %v", len(out), err)
					}
				})
				if bytes > 64 || allocs > 1 {
					t.Errorf("a warm decode allocates %.0f bytes in %.1f objects, want <= 64 in <= 1", bytes, allocs)
				}
			})
		}
	}
}

// TestCompressSteadyStateAllocs: every encoder's tables, per-block arrays
// and the buffer its stream is built in come from its workspace, so a warm
// Compress allocates its returned output and nothing else: not 1 MiB of
// hash table, 20 bytes per input byte of sort arrays, a bit writer's
// buffer or an adapter around it.
func TestCompressSteadyStateAllocs(t *testing.T) {
	for _, s := range []Scheme{Gzip, Compress, Bzip2, Zlib} {
		for _, size := range []int{4 << 10, 128 << 10} {
			t.Run(fmt.Sprintf("%v/%d", s, size), func(t *testing.T) {
				c := MustNew(s, 0)
				raw := workload.Generate(workload.ClassXML, size, 18)
				var out []byte
				bytes, allocs := perOp(func() {
					var err error
					if out, err = c.Compress(raw); err != nil {
						t.Fatal(err)
					}
				})
				// cap, not len: size classes round the output's allocation up.
				if over := bytes - float64(cap(out)); over != 0 || allocs != 1 {
					t.Errorf("a warm Compress allocates %.0f bytes beyond its %d-byte output, in %.1f objects; want 0 in 1", over, cap(out), allocs)
				}
			})
		}
	}
}
