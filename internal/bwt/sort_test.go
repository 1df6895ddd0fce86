package bwt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/flate"
	"repro/internal/workload"
)

// blockBytes is the dataplane's block (selective.BlockSize): what a cold
// bzip2 miss sorts.
const blockBytes = 128 * 1000

type namedBlock struct {
	name string
	data []byte
}

// benchFiles is workload.BenchFiles measured by flate's gzip -6: the sorter
// is tested and timed on the blocks the end-to-end numbers come from.
func benchFiles(tb testing.TB) []workload.BenchFile {
	return workload.BenchFiles(func(b []byte) float64 {
		c, err := flate.GzipCompress(b, 6)
		if err != nil {
			tb.Fatal(err)
		}
		return float64(len(b)) / float64(len(c))
	})
}

// fibonacciWord is the classic suffix-sorting adversary: every prefix
// doubling round and every depth-limited comparison sort meets its long
// repeats, and no rotation of it equals another.
func fibonacciWord(n int) []byte {
	a, b := []byte("b"), []byte("a")
	for len(b) < n {
		a, b = b, append(bytes.Clone(b), a...)
	}
	return b[:n]
}

// adversarialBlocks are block-sized inputs chosen against sorters, not
// drawn from any workload: powers u^k of short and long roots, what RLE1
// makes of a zero-filled block, a random block repeated, a Fibonacci word.
func adversarialBlocks(size int) []namedBlock {
	rng := rand.New(rand.NewSource(20))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	power := func(u []byte) []byte { return bytes.Repeat(u, size/len(u)) }
	almost := power([]byte("ab"))
	almost[len(almost)-1] = 'c'
	return []namedBlock{
		{"a^k", power([]byte("a"))},
		{"(ab)^k", power([]byte("ab"))},
		{"(abc)^k", power([]byte("abc"))},
		{"(64 random)^k", power(random(64))},
		{"(1000 random)^k", power(random(1000))},
		{"(ab)^k c", almost},
		{"rle1 of zeros", appendRLE1(nil, make([]byte, size))},
		{"random half twice", power(random(size / 2))},
		{"fibonacci", fibonacciWord(size)},
	}
}

// checkTransform is the encode side's oracle, Manber-Myers: on workspace
// e, block must transform to the last column it gives, with its row pointer
// when no other row equals that one and the lowest equal row otherwise, and
// invert to itself. Inside, the sort must leave the block's Lyndon root —
// the first period bytes of its least rotation — and the root's suffix array
// in the order Manber-Myers sorts the root's rotations, which is the order
// of its suffixes. Blocks short enough are also held to the quadratic sort.
func checkTransform(e *encoder, block []byte) error {
	if len(block) == 0 {
		return nil
	}
	last := make([]byte, len(block))
	ptr := e.transform(last, block)
	wantLast, wantPtr := referenceTransform(block)
	if !bytes.Equal(last, wantLast) {
		return fmt.Errorf("last column differs from Manber-Myers'")
	}
	if lowest := lowestEqualRow(block, wantPtr); ptr != lowest {
		return fmt.Errorf("row pointer %d, want %d (Manber-Myers chose %d)", ptr, lowest, wantPtr)
	}
	if !bytes.Equal(Inverse(last, ptr), block) {
		return fmt.Errorf("Inverse(last, %d) is not the block", ptr)
	}
	root := referenceInverse(wantLast, 0)[:period(block)]
	if !bytes.Equal(e.rot[:len(e.sa)], root) {
		return fmt.Errorf("the sort's %d-byte root is not the block's %d-byte Lyndon root", len(e.sa), len(root))
	}
	if !slices.Equal(e.sa, manberMyers(root)) {
		return fmt.Errorf("suffix array of the %d-byte root differs from Manber-Myers'", len(root))
	}
	if len(block) <= 512 {
		naive := naiveCyclicSort(block)
		for i, p := range naive {
			if c := block[(p+len(block)-1)%len(block)]; c != last[i] {
				return fmt.Errorf("row %d ends in %q, the quadratic sort says %q", i, last[i], c)
			}
		}
	}
	return nil
}

// TestSortMatchesManberMyers holds the sort to Manber-Myers, through one
// workspace throughout, on the fuzz seeds and their cubes, the adversarial
// blocks, and every block the bench files' bzip2 artifacts sort: each
// 128 kB dataplane block after RLE1, as levels 2 and 9 both take it, and
// each level-9 block of a whole file.
func TestSortMatchesManberMyers(t *testing.T) {
	var blocks []namedBlock
	for _, b := range sortSeeds() {
		blocks = append(blocks, b, namedBlock{b.name + "^3", bytes.Repeat(b.data, 3)})
	}
	blocks = append(blocks, adversarialBlocks(blockBytes)...)
	for _, f := range benchFiles(t) {
		for _, size := range []int{blockBytes, 9 * blockSizeUnit} {
			for off := 0; off < len(f.Data); off += size {
				raw := f.Data[off:min(off+size, len(f.Data))]
				blocks = append(blocks, namedBlock{fmt.Sprintf("%s %d-byte block at %d", f.Name, size, off), appendRLE1(nil, raw)})
			}
		}
	}
	e := new(encoder)
	for _, b := range blocks {
		if err := checkTransform(e, b.data); err != nil {
			t.Errorf("%s: %v", b.name, err)
		}
	}
}

// lowestEqualRow is the first of the sorted rows equal to row ptr: ptr
// itself unless block is a proper power u^k, whose k copies of each
// rotation are adjacent.
func lowestEqualRow(block []byte, ptr int) int {
	k := len(block) / period(block)
	return ptr / k * k
}

// period is the length of the shortest u of which block, not empty, is a
// power u^k: len(block) unless block is periodic. It comes from the border
// array.
func period(block []byte) int {
	n := len(block)
	border := make([]int, n+1)
	border[0] = -1
	for i, k := 0, -1; i < n; {
		for k >= 0 && block[i] != block[k] {
			k = border[k]
		}
		i++
		k++
		border[i] = k
	}
	if p := n - border[n]; n%p == 0 {
		return p
	}
	return n
}

// checkEncodeWorkspaces runs checkTransform on x fresh and after y has been
// through the same workspace, and requires Compress — which draws whatever
// workspace the pool hands it — to be a pure function of its input.
func checkEncodeWorkspaces(x, y []byte) error {
	if err := checkTransform(new(encoder), x); err != nil {
		return fmt.Errorf("fresh workspace: %w", err)
	}
	used := new(encoder)
	if len(y) > 0 {
		used.transform(make([]byte, len(y)), y)
	}
	if err := checkTransform(used, x); err != nil {
		return fmt.Errorf("used workspace: %w", err)
	}
	a, err := Compress(x, 1)
	if err != nil {
		return err
	}
	if _, err := Compress(y, 1); err != nil {
		return err
	}
	b, err := Compress(x, 1)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("Compress gave two streams for one input")
	}
	if want := referenceCompress(x, 1); !bytes.Equal(a, want) {
		return fmt.Errorf("Compress differs from the reference pipeline's stream")
	}
	return nil
}

// sortSeeds is FuzzBWTTransform's corpus: the adversarial shapes scaled
// down so a seed costs the oracle milliseconds, one of them — a 64 kB
// random block twice — at full size too, and a slice of every workload
// class.
func sortSeeds() []namedBlock {
	seeds := adversarialBlocks(8000)
	seeds = append(seeds, adversarialBlocks(maxFuzzBlock)[7],
		namedBlock{"empty", nil}, namedBlock{"one byte", []byte("q")}, namedBlock{"abababab", []byte("abababab")})
	for c := workload.ClassXML; c <= workload.ClassScript; c++ {
		seeds = append(seeds, namedBlock{c.String(), workload.Generate(c, 6000, 20)})
	}
	return seeds
}

// maxFuzzBlock bounds what FuzzBWTTransform sorts: a dataplane block and
// a little more.
const maxFuzzBlock = 128 << 10

// FuzzBWTTransform holds the linear-time sorter to Manber-Myers (column,
// row pointer, Lyndon root and its suffix array) and, on short inputs, to
// the quadratic sort, on arbitrary blocks x,
// each fresh and after an unrelated block y; raw x and x repeated (a proper
// power whenever it is long enough to matter) both go through. The seeds
// meet a periodic and an aperiodic predecessor and run under plain go test.
func FuzzBWTTransform(f *testing.F) {
	seeds := sortSeeds()
	for _, x := range seeds {
		f.Add(x.data, seeds[1].data, uint8(1))
		f.Add(x.data, seeds[len(seeds)-1].data, uint8(3))
	}
	f.Fuzz(func(t *testing.T, x, y []byte, k uint8) {
		if len(x) > maxFuzzBlock {
			x = x[:maxFuzzBlock]
		}
		if err := checkEncodeWorkspaces(x, y); err != nil {
			t.Fatal(err)
		}
		if power := bytes.Repeat(x, 1+int(k%8)); len(power) <= maxFuzzBlock {
			if err := checkEncodeWorkspaces(power, y); err != nil {
				t.Fatalf("x^%d: %v", 1+k%8, err)
			}
		}
	})
}

// benchDigests are the first eight bytes of the SHA-256 of each bench file's
// bzip2 artifact — Compress at level 9 of every 128 kB block, one after
// another, as the dataplane builds it — as the parent of the fused
// move-to-front pass and the word-storing bit writer wrote it.
var benchDigests = map[string]string{
	"prog.c":     "e4be19d5ede2f33a",
	"spec.html":  "e14788ad35e8e8c3",
	"tool.bin":   "f4eabe6e04260f92",
	"paper.ps":   "8aef086c62c00d38",
	"deck.mixed": "1ac580a4d71b5b75",
	"media.r115": "1318ed20a7c7ee36",
}

// TestBenchFilesMatchReference is the byte-identity claim on the data the
// benchmark serves: every 128 kB block of its six files, and every level-9
// block, compresses to the stream the Manber-Myers sort, the scanning
// move-to-front loop and the zero-run coder produce, and each file's
// artifact to the bytes recorded before the bit writer under both pipelines
// changed.
func TestBenchFilesMatchReference(t *testing.T) {
	for _, f := range benchFiles(t) {
		sum := sha256.New()
		for off := 0; off < len(f.Data); off += blockBytes {
			block := f.Data[off:min(off+blockBytes, len(f.Data))]
			got, err := Compress(block, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, referenceCompress(block, 2)) {
				t.Errorf("%s block at %d: stream differs from the reference pipeline's", f.Name, off)
			}
			if got, err = Compress(block, 9); err != nil {
				t.Fatal(err)
			}
			sum.Write(got)
		}
		if got := hex.EncodeToString(sum.Sum(nil)[:8]); got != benchDigests[f.Name] {
			t.Errorf("%s: bzip2 artifact digest %s, recorded %q", f.Name, got, benchDigests[f.Name])
		}
		if testing.Short() {
			continue
		}
		got, err := Compress(f.Data, 9)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, referenceCompress(f.Data, 9)) {
			t.Errorf("%s at level 9: stream differs from the reference pipeline's", f.Name)
		}
	}
}

// TestSortWorstCase is the guard on what an operator can register: no
// adversarial block may cost more than 8x the per-byte time of an HTML
// block sorted in the same process, which a depth-limited comparison sort
// without a linear fallback fails by orders of magnitude.
func TestSortWorstCase(t *testing.T) {
	e := new(encoder)
	perByte := func(block []byte) float64 {
		last := make([]byte, len(block))
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			e.transform(last, block)
			best = min(best, time.Since(start))
		}
		return float64(best) / float64(len(block))
	}
	html := appendRLE1(nil, workload.Generate(workload.ClassHTML, blockBytes, 20))
	base := perByte(html)
	for _, b := range adversarialBlocks(blockBytes) {
		if got := perByte(b.data); got > 8*base {
			t.Errorf("%s: %.1f ns/byte, HTML block %.1f ns/byte: over 8x", b.name, got, base)
		}
	}
}

// TestLevel9BlockRoundTrip sorts the largest block a level allows — 900 kB,
// the czip and figure path — whose indices must fit the sorter's int32.
func TestLevel9BlockRoundTrip(t *testing.T) {
	data := workload.Generate(workload.ClassSource, 9*blockSizeUnit, 20)
	for _, block := range [][]byte{data, bytes.Repeat(data[:1000], 900), fibonacciWord(len(data))} {
		last, ptr := Transform(block)
		if !bytes.Equal(Inverse(last, ptr), block) {
			t.Fatalf("900 kB block starting %q does not round-trip", block[:16])
		}
		comp, err := Compress(block, 9)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecompressAppend(nil, comp, len(block))
		if err != nil || !bytes.Equal(back, block) {
			t.Fatalf("level 9 round trip of block starting %q: %v", block[:16], err)
		}
	}
}

// everyDepth is a column in which every byte value is met at every list
// depth 0-255 — so on both sides of each depth at which mtfRLE2 changes how
// it searches or shifts — and every such meeting is followed by a short run.
func everyDepth() []byte {
	var out []byte
	for b := 0; b < 256; b++ {
		for d := 0; d < 256; d++ {
			out = append(out, byte(b))
			for k := 1; k <= d; k++ {
				out = append(out, byte(b+k)) // d distinct others: b is now d deep
			}
			for run := 0; run <= d%5; run++ {
				out = append(out, byte(b))
			}
		}
	}
	return out
}

// TestMTFMatchesReference holds the fused pass, on one workspace
// throughout, to the scanning move-to-front loop and the zero-run coder:
// the same symbol stream, and the histogram of that stream. The inputs are
// BWT-like columns, the sort seeds' real last columns, a uniform-random
// dataplane block (every byte ~128 deep) and everyDepth.
func TestMTFMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	inputs := [][]byte{nil, {0}, {255, 255, 0}, bytes.Repeat([]byte{7}, 300)}
	for i := 0; i < 50; i++ {
		b := make([]byte, rng.Intn(4000))
		alpha := 1 + rng.Intn(256)
		for j := range b {
			if j > 0 && rng.Intn(3) > 0 {
				b[j] = b[j-1] // BWT-like: mostly the byte before
			} else {
				b[j] = byte(rng.Intn(alpha))
			}
		}
		inputs = append(inputs, b)
	}
	for _, f := range sortSeeds() {
		last, _ := Transform(f.data)
		inputs = append(inputs, last)
	}
	uniform := make([]byte, blockBytes)
	rng.Read(uniform)
	deep := everyDepth()
	inputs = append(inputs, uniform, deep)

	var met [256][256]bool
	for i, b := range referenceMTFEncode(deep) {
		met[deep[i]][b] = true
	}
	for b := range met {
		for d, ok := range met[b] {
			if !ok {
				t.Fatalf("everyDepth never meets byte %d at depth %d", b, d)
			}
		}
	}

	e := new(encoder)
	for i, in := range inputs {
		want := appendRLE2(nil, referenceMTFEncode(in))
		var freq [numSymbols]int
		for _, s := range want {
			freq[s]++
		}
		e.mtfRLE2(in)
		if !slices.Equal(e.syms, want) {
			t.Errorf("input %d (%d bytes): symbol stream differs from the reference passes'", i, len(in))
		}
		if e.freq != freq {
			t.Errorf("input %d (%d bytes): histogram differs from a count of the stream", i, len(in))
		}
	}
}

// BenchmarkTransform times the block sort alone on one dataplane block of
// each file the benchmark's large workloads serve, after RLE1 as the
// compressor sorts it, and on one periodic block — the degenerate case the
// package's other benchmarks happen to feed.
func BenchmarkTransform(b *testing.B) {
	blocks := []namedBlock{}
	for _, f := range benchFiles(b) {
		blocks = append(blocks, namedBlock{f.Name, appendRLE1(nil, f.Data[:blockBytes])})
	}
	blocks = append(blocks, namedBlock{"periodic", bytes.Repeat([]byte("bwt benchmark corpus with typical textual redundancy 0123456789\n"), blockBytes/64)})
	for _, blk := range blocks {
		b.Run(blk.name, func(b *testing.B) {
			e := new(encoder)
			last := make([]byte, len(blk.data))
			b.SetBytes(int64(len(blk.data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.transform(last, blk.data)
			}
		})
	}
}

// BenchmarkRLE1 times the run-length pass before the sort on the first
// dataplane block of each bench file.
func BenchmarkRLE1(b *testing.B) {
	for _, f := range benchFiles(b) {
		b.Run(f.Name, func(b *testing.B) {
			block := f.Data[:blockBytes]
			var dst []byte
			b.SetBytes(int64(len(block)))
			for i := 0; i < b.N; i++ {
				dst = appendRLE1(dst[:0], block)
			}
		})
	}
}

// benchLastColumns is the BWT output of the first dataplane block of each
// bench file: what move-to-front reads.
func benchLastColumns(tb testing.TB) []namedBlock {
	var out []namedBlock
	for _, f := range benchFiles(tb) {
		last, _ := Transform(appendRLE1(nil, f.Data[:blockBytes]))
		out = append(out, namedBlock{f.Name, last})
	}
	return out
}

// BenchmarkMTF times the fused pass from last column to counted symbol
// stream on those columns, as compressBlock runs it.
func BenchmarkMTF(b *testing.B) {
	for _, col := range benchLastColumns(b) {
		b.Run(col.name, func(b *testing.B) {
			e := new(encoder)
			b.SetBytes(int64(len(col.data)))
			for i := 0; i < b.N; i++ {
				e.mtfRLE2(col.data)
			}
		})
	}
}

// BenchmarkCompressBlock times one block's whole encode — RLE1, sort,
// move-to-front and RLE2, Huffman build, bit writer — on the first
// dataplane block of each bench file.
func BenchmarkCompressBlock(b *testing.B) {
	for _, f := range benchFiles(b) {
		b.Run(f.Name, func(b *testing.B) {
			block := f.Data[:blockBytes]
			b.SetBytes(int64(len(block)))
			for i := 0; i < b.N; i++ {
				if _, err := Compress(block, 9); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
