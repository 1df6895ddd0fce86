package sim

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"testing"
)

// sameStream draws n times from NewRand(seed) and from math/rand's own
// generator, cycling through the methods the testbed calls, and reports
// the first draw at which they differ.
func sameStream(t *testing.T, got, want *rand.Rand, seed int64, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		var g, w any
		switch k % 7 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = got.Int63(), want.Int63()
		case 2:
			g, w = got.Float64(), want.Float64()
		case 3:
			g, w = got.Intn(20), want.Intn(20)
		case 4:
			g, w = got.Int63n(1_000_000_007), want.Int63n(1_000_000_007)
		case 5:
			g, w = fmt.Sprint(got.Perm(5)), fmt.Sprint(want.Perm(5))
		case 6:
			a, b := []int{0, 1, 2, 3, 4, 5}, []int{0, 1, 2, 3, 4, 5}
			got.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
			want.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			g, w = fmt.Sprint(a), fmt.Sprint(b)
		}
		if g != w {
			t.Fatalf("seed %d, call %d: got %v, math/rand %v", seed, k, g, w)
		}
	}
}

func TestSeededRandMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, 89482311, m, -m, 2 * m, -2 * m, 3*m + 1, m * m, m - 1, m + 1,
		math.MinInt64, math.MaxInt64}
	pick := rand.New(rand.NewSource(24))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		// Each call makes one to six draws: 4×607 calls cross the hand-over
		// at draw 273 and both wrap points of the 607-word state.
		sameStream(t, NewRand(seed), rand.New(rand.NewSource(seed)), seed, 4*rngLen)
	}
}

// Seed restarts a used source, before and after the hand-over.
func TestSeededRandReseed(t *testing.T) {
	for _, used := range []int{0, 3, rngTap - 1, rngTap, rngTap + 1, 2 * rngLen} {
		r := NewRand(7)
		for i := 0; i < used; i++ {
			r.Uint64()
		}
		r.Seed(-12345)
		sameStream(t, r, rand.New(rand.NewSource(-12345)), -12345, 2*rngLen)
	}
}

// The derived constants are math/rand's own table, when its source is here
// to read.
func TestCookedMatchesGoroot(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(runtime.GOROOT(), "src", "math", "rand", "rng.go"))
	if err != nil {
		t.Skipf("math/rand's source is not readable: %v", err)
	}
	table := regexp.MustCompile(`(?s)rngCooked \[rngLen\]int64 = \[\.\.\.\]int64\{(.*?)\}`).FindSubmatch(src)
	if table == nil {
		t.Skip("rng.go has no rngCooked table in the shape this test reads")
	}
	nums := regexp.MustCompile(`-?\d+`).FindAll(table[1], -1)
	if len(nums) != rngLen {
		t.Fatalf("rng.go lists %d constants, want %d", len(nums), rngLen)
	}
	for i, s := range nums {
		v, err := strconv.ParseInt(string(s), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(v) != cooked[i] {
			t.Fatalf("cooked[%d] = %d, rng.go has %d", i, int64(cooked[i]), v)
		}
	}
}

// A short-lived stream is what the testbed makes four of per fetch: the
// constructor and a few draws must not pay for the state they never read.
func TestSeededRandAllocs(t *testing.T) {
	var sink int
	draw := func() {
		r := NewRand(24)
		sink += r.Intn(9) + r.Intn(3) + r.Intn(4) + r.Intn(20)
	}
	if n := testing.AllocsPerRun(100, draw); n > 3 {
		t.Errorf("NewRand + 4 draws: %v allocations, want <= 3", n)
	}
	const rounds = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		draw()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / rounds; b > 160 {
		t.Errorf("NewRand + 4 draws: %d bytes, want <= 160", b)
	}
	_ = sink
}

func FuzzSeededRand(f *testing.F) {
	f.Add(int64(0), uint16(4))
	f.Add(int64(-1), uint16(rngTap))
	f.Add(int64(math.MinInt64), uint16(3*rngLen))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		sameStream(t, NewRand(seed), rand.New(rand.NewSource(seed)), seed, int(draws)%(4*rngLen))
	})
}

func BenchmarkNewRand4Draws(b *testing.B) {
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		r := NewRand(int64(i))
		sink += r.Intn(9) + r.Intn(3) + r.Intn(4) + r.Intn(20)
	}
	_ = sink
}

func BenchmarkMathRand4Draws(b *testing.B) {
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		sink += r.Intn(9) + r.Intn(3) + r.Intn(4) + r.Intn(20)
	}
	_ = sink
}
