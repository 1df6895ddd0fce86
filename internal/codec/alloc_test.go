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

// TestCompressSteadyStateAllocs: the LZW and BWT encoders' tables and
// per-block arrays come from their workspaces, so a warm Compress
// allocates its returned output and a fixed few KiB (the bit writer's
// buffer), not 1 MiB of hash table or 20 bytes per input byte of sort
// arrays.
func TestCompressSteadyStateAllocs(t *testing.T) {
	for _, s := range []Scheme{Compress, Bzip2} {
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
				if over := bytes - float64(cap(out)); over > 8<<10 || allocs > 8 {
					t.Errorf("a warm Compress allocates %.0f bytes beyond its %d-byte output, in %.1f objects; want <= 8192 in <= 8", over, cap(out), allocs)
				}
			})
		}
	}
}
