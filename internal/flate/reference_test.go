package flate

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lz77"
	"repro/internal/workload"
)

// The LZ77 matcher as it was before a candidate had to show three equal
// bytes to reach the length comparison and before Tokenize stopped wiping
// the chain links: lz77.Matcher's reset, hashing, findMatch, matchLen and
// Tokenize, verbatim but for the names. Every DEFLATE stream the encoder
// wrote was this matcher's tokens through the block encoder below it, so
// the encoder's bytes are held to what it produces. (The bit writer those
// bytes pass through has its own reference in internal/bitio; the digests
// in TestBenchFilesMatchReference pin the two together.)

const (
	refHashBits = 15
	refHashSize = 1 << refHashBits
	refHashMask = refHashSize - 1
)

type referenceMatcher struct {
	cfg  lz77.Config
	head []int32
	prev []int32
}

func newReferenceMatcher(tb testing.TB, level int) *referenceMatcher {
	cfg, err := lz77.LevelConfig(level)
	if err != nil {
		tb.Fatal(err)
	}
	return &referenceMatcher{cfg: cfg, head: make([]int32, refHashSize), prev: make([]int32, lz77.WindowSize)}
}

func (m *referenceMatcher) reset() {
	for i := range m.head {
		m.head[i] = -1
	}
	for i := range m.prev {
		m.prev[i] = -1
	}
}

func refHash4(data []byte, i int) uint32 {
	// Multiplicative hash over 4 bytes; good dispersion for text and binary.
	v := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16 | uint32(data[i+3])<<24
	return (v * 2654435761) >> (32 - refHashBits) & refHashMask
}

func refHash3(data []byte, i int) uint32 {
	v := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16
	return (v * 506832829) >> (32 - refHashBits) & refHashMask
}

func (m *referenceMatcher) hashAt(data []byte, i int) uint32 {
	if i+4 <= len(data) {
		return refHash4(data, i)
	}
	return refHash3(data, i)
}

func (m *referenceMatcher) insert(data []byte, i int) {
	h := m.hashAt(data, i)
	m.prev[i&(lz77.WindowSize-1)] = m.head[h]
	m.head[h] = int32(i)
}

// findMatch searches the hash chain for the longest match at position i,
// requiring it to beat prevLen. It returns length 0 when nothing longer is
// found.
func (m *referenceMatcher) findMatch(data []byte, i, prevLen, maxChain int) (length, dist int) {
	limit := i - lz77.MaxDist
	if limit < 0 {
		limit = 0
	}
	maxLen := len(data) - i
	if maxLen > lz77.MaxMatch {
		maxLen = lz77.MaxMatch
	}
	if maxLen < lz77.MinMatch {
		return 0, 0
	}
	nice := m.cfg.NiceLength
	if nice > maxLen {
		nice = maxLen
	}
	best := prevLen
	bestDist := 0
	if best >= maxLen {
		// Nothing at this position can beat the pending match; every
		// candidate would fail the end-bytes quick reject below.
		return 0, 0
	}
	// Quick-reject pair: a candidate can only beat the current best if it
	// matches through byte best, so compare the two bytes ending there in
	// one load. Hoisted out of the chain walk and refreshed when best
	// improves (best < maxLen holds throughout, keeping i+best in bounds).
	// All chain entries are positions this Tokenize call inserted before
	// reaching i, so every candidate j satisfies j < i and the loads below
	// stay in bounds.
	var scanEnd uint16
	if best >= 1 {
		scanEnd = binary.LittleEndian.Uint16(data[i+best-1:])
	}
	// The fixed-size array views let the compiler drop bounds checks on the
	// masked chain loads in the hot walk.
	prev := (*[lz77.WindowSize]int32)(m.prev)
	cand := m.head[m.hashAt(data, i)]
	for chain := 0; chain < maxChain && cand >= int32(limit); chain++ {
		j := int(cand)
		// Quick reject: the two bytes closing the would-be match.
		if best >= 1 && binary.LittleEndian.Uint16(data[j+best-1:]) != scanEnd {
			cand = prev[j&(lz77.WindowSize-1)]
			continue
		}
		l := refMatchLen(data, j, i, maxLen)
		if l > best {
			best = l
			bestDist = i - j
			if l >= nice {
				break
			}
			scanEnd = binary.LittleEndian.Uint16(data[i+best-1:])
		}
		cand = prev[j&(lz77.WindowSize-1)]
	}
	if bestDist == 0 || best < lz77.MinMatch {
		return 0, 0
	}
	return best, bestDist
}

// matchLen compares 8 bytes per step; j < i keeps every load inside data
// because i+maxLen <= len(data).
func refMatchLen(data []byte, j, i, maxLen int) int {
	n := 0
	for n+8 <= maxLen {
		x := binary.LittleEndian.Uint64(data[j+n:]) ^ binary.LittleEndian.Uint64(data[i+n:])
		if x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < maxLen && data[j+n] == data[i+n] {
		n++
	}
	return n
}

// Tokenize scans data and emits LZ77 tokens through emit. The token stream
// exactly covers data: the sum of Advance() over all tokens equals
// len(data). Reset state is cleared per call, so each call tokenises an
// independent buffer (one compression "member").
func (m *referenceMatcher) Tokenize(data []byte, emit func(lz77.Token)) {
	m.reset()
	n := len(data)
	if n == 0 {
		return
	}
	i := 0
	// Pending lazy literal state.
	prevLen, prevDist := 0, 0
	havePrev := false
	for i < n {
		if n-i < lz77.MinMatch {
			if havePrev {
				emit(lz77.Literal(data[i-1]))
				havePrev = false
			}
			for ; i < n; i++ {
				emit(lz77.Literal(data[i]))
			}
			break
		}
		if havePrev && prevLen >= m.cfg.MaxLazy {
			// The pending match is already long enough that the lazy
			// comparison below could never prefer a new one (prevLen >=
			// MaxLazy fails its guard); skip the search entirely, as zlib
			// does. Emitting here is the same decision the comparison would
			// reach.
			emit(lz77.Match(prevLen, prevDist))
			end := i - 1 + prevLen
			for k := i; k < end && k+lz77.MinMatch <= n; k++ {
				m.insert(data, k)
			}
			i = end
			havePrev = false
			continue
		}
		chain := m.cfg.MaxChain
		searchFloor := 0
		if havePrev {
			if prevLen >= m.cfg.GoodLength {
				chain >>= 2
			}
			// zlib's prev_length pruning: the lazy comparison only cares
			// whether this position beats the pending match, so the search
			// may reject anything not longer than prevLen. findMatch then
			// returns 0 when nothing beats it, which leaves the curLen >
			// prevLen decision unchanged.
			searchFloor = prevLen
		}
		curLen, curDist := m.findMatch(data, i, searchFloor, chain)

		if !m.cfg.Lazy {
			if curLen >= lz77.MinMatch {
				emit(lz77.Match(curLen, curDist))
				// Insert positions covered by the match (bounded for speed
				// at low levels, as zlib does for short inserts).
				end := i + curLen
				m.insert(data, i)
				for k := i + 1; k < end && k+lz77.MinMatch <= n; k++ {
					m.insert(data, k)
				}
				i = end
			} else {
				emit(lz77.Literal(data[i]))
				m.insert(data, i)
				i++
			}
			continue
		}

		// Lazy matching: compare this position's match with the previous
		// position's pending match.
		if havePrev {
			if curLen > prevLen && prevLen < m.cfg.MaxLazy {
				// The new match is better: the previous byte becomes a
				// literal and the new match stays pending.
				emit(lz77.Literal(data[i-1]))
				prevLen, prevDist = curLen, curDist
				m.insert(data, i)
				i++
				continue
			}
			// Previous match wins; emit it anchored at i-1.
			emit(lz77.Match(prevLen, prevDist))
			end := i - 1 + prevLen
			for k := i; k < end && k+lz77.MinMatch <= n; k++ {
				m.insert(data, k)
			}
			i = end
			havePrev = false
			continue
		}
		if curLen >= lz77.MinMatch && curLen < m.cfg.MaxLazy {
			// Defer the decision by one byte.
			prevLen, prevDist = curLen, curDist
			havePrev = true
			m.insert(data, i)
			i++
			continue
		}
		if curLen >= lz77.MinMatch {
			emit(lz77.Match(curLen, curDist))
			end := i + curLen
			m.insert(data, i)
			for k := i + 1; k < end && k+lz77.MinMatch <= n; k++ {
				m.insert(data, k)
			}
			i = end
			continue
		}
		emit(lz77.Literal(data[i]))
		m.insert(data, i)
		i++
	}
	if havePrev {
		emit(lz77.Literal(data[n-1]))
	}
}

// deflateThrough is Deflate with the tokeniser passed in: tokenize's tokens
// through a pooled block encoder and its bit writer.
func deflateThrough(tb testing.TB, tokenize func([]byte, func(lz77.Token)), data []byte) []byte {
	enc := encoderPool.Get().(*blockEncoder)
	defer encoderPool.Put(enc)
	enc.reset(nil, data)
	defer enc.reset(nil, nil)
	tokenize(data, enc.appendToken)
	enc.flushBlock(true)
	if enc.err != nil {
		tb.Fatal(enc.err)
	}
	if err := enc.bw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return enc.bw.Bytes()
}

// checkEncodeIdentical requires x to deflate, at levels 1, 6 and 9, to the
// bytes the reference matcher's tokens encode to — through Deflate and its
// pooled matcher, through a matcher that has never run, and through one
// that has just tokenised y, whose links it must not follow.
func checkEncodeIdentical(tb testing.TB, x, y []byte) {
	for _, level := range []int{1, 6, 9} {
		want := deflateThrough(tb, newReferenceMatcher(tb, level).Tokenize, x)
		pooled, err := CompressBytes(x, level)
		if err != nil {
			tb.Fatal(err)
		}
		fresh, err := lz77.NewMatcher(level)
		if err != nil {
			tb.Fatal(err)
		}
		reused, _ := lz77.NewMatcher(level)
		reused.Tokenize(y, func(lz77.Token) {})
		for _, got := range []struct {
			how string
			b   []byte
		}{
			{"Deflate", pooled},
			{"a fresh matcher", deflateThrough(tb, fresh.Tokenize, x)},
			{"a reused matcher", deflateThrough(tb, reused.Tokenize, x)},
		} {
			if !bytes.Equal(got.b, want) {
				tb.Fatalf("level %d, %d bytes through %s: stream differs from the reference matcher's", level, len(x), got.how)
			}
		}
	}
}

// overlapInput is runs and short periods, where the next candidate of a
// search can overlap the position searched. It opens with a built case: a
// period-5 run is entered with a lazy match of 9 pending from the byte
// before it, so the search at the run's start may jump to the chain of the
// bytes 6 past it, but its best candidate is the period just before, whose
// own bytes 6 on are not yet inserted.
func overlapInput() []byte {
	rng := rand.New(rand.NewSource(34))
	upper := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('A' + rng.Intn(26))
		}
		return b
	}
	var b []byte
	for range 10 {
		b = append(append(b, "uvwx"...), upper(3)...)
	}
	x := upper(8)
	b = append(append(append(b, x...), "uvwxQ"...), upper(20)...)
	b = append(append(b, "yuvwxyuvw!"...), upper(20)...)
	b = append(append(b, x...), bytes.Repeat([]byte("uvwxy"), 9)...)
	b = append(b, 'R')
	var periods [][]byte
	for range 600 {
		var p []byte
		if len(periods) > 0 && rng.Intn(3) == 0 {
			p = periods[rng.Intn(len(periods))]
		} else {
			p = make([]byte, 1+rng.Intn(8))
			for i := range p {
				p[i] = byte('a' + rng.Intn(4))
			}
			periods = append(periods, p)
		}
		for n := 3 + rng.Intn(60); n > 0; n-- {
			b = append(b, p[n%len(p)])
		}
		b = append(b, upper(rng.Intn(3))...)
	}
	return b
}

// crowdedInput is records of "abcd" and a letter, so that "abcd" recurs
// 4,096 times within a window and every search at a record's start runs into
// its chain cutoff. A run of twelve records, t, is planted three times: the
// last copy's best match is a 47-byte copy past the cutoff, and a shorter
// copy lies well inside it. With pending, a '#' before the last copy and
// the shorter one makes a lazy match of 39 pending at the last copy's start,
// so the search there runs under the cut to a quarter of the chain after a
// match of GoodLength.
func crowdedInput(pending bool) []byte {
	rng := rand.New(rand.NewSource(34))
	var b []byte
	records := func(n int) {
		for range n {
			b = append(b, 'a', 'b', 'c', 'd', byte('e'+rng.Intn(22)))
		}
	}
	records(12)
	t := bytes.Clone(b)
	b = b[:0]
	if pending {
		records(1000)
		b = append(b, t[:47]...)
		records(2000)
		b = append(append(b, '#'), t[:38]...)
	} else {
		records(1500)
		b = append(b, t[:47]...)
		records(4600)
		b = append(b, t[:22]...)
	}
	records(300)
	b = append(append(b, '#'), t...)
	records(200)
	return b
}

// encodeSeeds is FuzzDeflateEncodeIdentical's corpus: a slice of every
// workload class, noise (where nearly every chain candidate is a hash
// collision), runs, inputs that end inside the last hashable position, and
// the three inputs built to reach the match finder's jumps between chains.
func encodeSeeds() [][]byte {
	noise := make([]byte, 48<<10)
	rand.New(rand.NewSource(22)).Read(noise)
	seeds := [][]byte{
		nil, {42}, []byte("ab"), []byte("abc"), []byte("abcabc"), []byte("abcdabcd"), []byte("aaaaaaaaaaaa"),
		bytes.Repeat([]byte("xy"), 9000), noise, append(bytes.Clone(noise[:40<<10]), noise[:9<<10]...),
		DeepCodeData(24 << 10), overlapInput(), crowdedInput(false), crowdedInput(true),
	}
	for c := workload.ClassXML; c <= workload.ClassScript; c++ {
		seeds = append(seeds, workload.Generate(c, 12<<10, 22))
	}
	return seeds
}

// FuzzDeflateEncodeIdentical compares compressed bytes, which the two
// inflater differentials do not: arbitrary x, after arbitrary y has been
// through the matcher, must deflate to the reference matcher's stream. That
// covers the match finder's walk on a shifted, rarer chain, which the
// reference never takes: its seeds include the runs, the crowded chain and
// the pending match that reach the walk's overlap guard and both cutoffs.
func FuzzDeflateEncodeIdentical(f *testing.F) {
	seeds := encodeSeeds()
	for _, x := range seeds {
		f.Add(x, seeds[8])
		f.Add(x, seeds[len(seeds)-1])
	}
	f.Fuzz(func(t *testing.T, x, y []byte) { checkEncodeIdentical(t, x, y) })
}

// benchFiles is workload.BenchFiles measured by this package's gzip -6.
func benchFiles(tb testing.TB) []workload.BenchFile {
	return workload.BenchFiles(func(b []byte) float64 {
		c, err := GzipCompress(b, 6)
		if err != nil {
			tb.Fatal(err)
		}
		return float64(len(b)) / float64(len(c))
	})
}

// blockBytes is the dataplane's block (selective.BlockSize): what a cold
// gzip miss deflates.
const blockBytes = 128 * 1000

// benchDigests are the first eight bytes of the SHA-256 of each bench
// file's gzip artifact — GzipCompress at level 9 of every block, one after
// another — as the parent of the word-storing bit writers wrote it.
var benchDigests = map[string]string{
	"prog.c":     "264cb0cb9d5264ce",
	"spec.html":  "3d8f2ac416d737ab",
	"tool.bin":   "b2ca6ee44f5ce98d",
	"paper.ps":   "f1ea891cb9367238",
	"deck.mixed": "8942dbc171b70d54",
	"media.r115": "8939369c2d288e88",
}

// TestBenchFilesMatchReference is the byte-identity claim on the data the
// benchmark serves: every 128 kB block of its six files deflates at level 9
// to the reference matcher's stream, and each file's blocks, gzipped, to the
// bytes recorded before the matcher or the bit writer changed.
func TestBenchFilesMatchReference(t *testing.T) {
	ref := newReferenceMatcher(t, 9)
	for _, f := range benchFiles(t) {
		sum := sha256.New()
		for off := 0; off < len(f.Data); off += blockBytes {
			block := f.Data[off:min(off+blockBytes, len(f.Data))]
			got, err := CompressBytes(block, 9)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, deflateThrough(t, ref.Tokenize, block)) {
				t.Errorf("%s block at %d: stream differs from the reference matcher's", f.Name, off)
			}
			member, err := GzipCompress(block, 9)
			if err != nil {
				t.Fatal(err)
			}
			sum.Write(member)
		}
		if got := hex.EncodeToString(sum.Sum(nil)[:8]); got != benchDigests[f.Name] {
			t.Errorf("%s: gzip artifact digest %s, recorded %q", f.Name, got, benchDigests[f.Name])
		}
	}
}

// TestTokenizeMatchesReference holds lz77.Matcher's tokens, at every level,
// to the frozen matcher's, on each 128 kB block of the bench files and on
// the three inputs built to reach the corners of the walk on a shifted
// chain: runs whose next candidate overlaps the position searched, a chain
// long enough for level 9's cutoff, and the same under a pending match that
// cuts it to a quarter.
func TestTokenizeMatchesReference(t *testing.T) {
	inputs := map[string][]byte{
		"overlap":          overlapInput(),
		"crowded":          crowdedInput(false),
		"crowded, pending": crowdedInput(true),
	}
	for _, f := range benchFiles(t) {
		for off := 0; off < len(f.Data); off += blockBytes {
			inputs[fmt.Sprintf("%s at %d", f.Name, off)] = f.Data[off:min(off+blockBytes, len(f.Data))]
		}
	}
	tokens := func(tokenize func([]byte, func(lz77.Token)), data []byte) []lz77.Token {
		var toks []lz77.Token
		tokenize(data, func(tok lz77.Token) { toks = append(toks, tok) })
		return toks
	}
	for level := 1; level <= 9; level++ {
		m, err := lz77.NewMatcher(level)
		if err != nil {
			t.Fatal(err)
		}
		ref := newReferenceMatcher(t, level)
		for name, data := range inputs {
			want, got := tokens(ref.Tokenize, data), tokens(m.Tokenize, data)
			if slices.Equal(got, want) {
				continue
			}
			k := 0
			for k < min(len(got), len(want)) && got[k] == want[k] {
				k++
			}
			t.Errorf("level %d, %s: token %d of %d differs from the reference matcher's", level, name, k, len(want))
		}
	}
}
