package bwt

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/checksum"
	"repro/internal/huffman"
)

// The decode stages as they were before the workspace fused them — each
// allocating its own output — kept as the reference the fused kernels are
// held to, and as what the stage tests in bwt_test.go call; with them the
// encode side's witnesses: the Manber-Myers rotation sort, the scanning
// move-to-front loop, and the RLE1 and RLE2 passes a byte and a symbol at a
// time.

// referenceMTFEncode is the move-to-front loop with no case taken early:
// scan for the byte, then move everything before it.
func referenceMTFEncode(data []byte) []byte {
	var list [256]byte
	for i := range list {
		list[i] = byte(i)
	}
	out := make([]byte, len(data))
	for k, b := range data {
		idx := 0
		for list[idx] != b {
			idx++
		}
		out[k] = byte(idx)
		copy(list[1:idx+1], list[:idx])
		list[0] = b
	}
	return out
}

// appendRLE2 appends mtf's RUNA/RUNB symbol stream, terminated by EOB, to
// dst.
func appendRLE2(dst []uint16, mtf []byte) []uint16 {
	run := 0
	flush := func() {
		for run > 0 {
			if run&1 == 1 {
				dst = append(dst, symRUNA)
				run = (run - 1) >> 1
			} else {
				dst = append(dst, symRUNB)
				run = (run - 2) >> 1
			}
		}
	}
	for _, v := range mtf {
		if v == 0 {
			run++
			continue
		}
		flush()
		dst = append(dst, uint16(v)+1)
	}
	flush()
	return append(dst, symEOB)
}

// rle1Encode is RLE1 a byte at a time, as appendRLE1 ran it before it
// looked for runs a word at a time.
func rle1Encode(data []byte) []byte {
	var dst []byte
	for i := 0; i < len(data); {
		b := data[i]
		j := i + 1
		for j < len(data) && data[j] == b && j-i < 255+4 {
			j++
		}
		if run := j - i; run >= 4 {
			dst = append(dst, b, b, b, b, byte(run-4))
		} else {
			dst = append(dst, data[i:j]...)
		}
		i = j
	}
	return dst
}

// referenceTransform is the transform over the Manber-Myers sort: what every
// stream before the linear-time sort was made with.
func referenceTransform(block []byte) ([]byte, int) {
	n := len(block)
	last := make([]byte, n)
	ptr := 0
	for i, p := range manberMyers(block) {
		if p == 0 {
			ptr = i
		}
		last[i] = block[(int(p)+n-1)%n]
	}
	return last, ptr
}

// referenceCompress is Compress over the witnesses above: the stream the
// parent of the linear-time sort wrote for data, except that a block whose
// RLE1 form is a proper power names the lowest of its equal rows — the
// parent named whichever its tie order left at rotation 0.
func referenceCompress(data []byte, level int) []byte {
	bw := bitio.NewMSBWriter([]byte{magic0, magic1, magic2, byte('0' + level)})
	for start := 0; start < len(data); start += level * blockSizeUnit {
		raw := data[start:min(start+level*blockSizeUnit, len(data))]
		rle := rle1Encode(raw)
		last, ptr := referenceTransform(rle)
		if len(rle) > 0 {
			ptr = lowestEqualRow(rle, ptr)
		}
		syms := appendRLE2(nil, referenceMTFEncode(last))
		freq := make([]int, numSymbols)
		for _, s := range syms {
			freq[s]++
		}
		lens, err := huffman.BuildLengths(freq, maxHuffBits)
		if err != nil {
			panic(err)
		}
		codes, err := huffman.CanonicalCodes(lens)
		if err != nil {
			panic(err)
		}
		bw.WriteBits(1, 1)
		bw.WriteBits(uint64(checksum.CRC32(raw)), 32)
		bw.WriteBits(uint64(len(rle)), 32)
		bw.WriteBits(uint64(ptr), 32)
		for _, l := range lens {
			bw.WriteBits(uint64(l), 5)
		}
		for _, s := range syms {
			bw.WriteBits(uint64(codes[s]), uint(lens[s]))
		}
	}
	bw.WriteBits(0, 1)
	if err := bw.Flush(); err != nil {
		panic(err)
	}
	return bw.Bytes()
}

// manberMyers returns the start indices of the cyclic rotations of s in
// lexicographic order by prefix doubling with counting sorts, O(n log n):
// the production sorter until the linear-time one replaced it. Identical
// rotations (s periodic) never separate into distinct classes and come out
// in whatever order the last round left them.
func manberMyers(s []byte) []int32 {
	n := int32(len(s))
	sa := make([]int32, n)
	rank := make([]int32, n)
	spare := make([]int32, n)
	cnt := make([]int32, max(len(s), 256)+1) // one per class, or per byte value in the first pass

	// Initial counting sort by first byte.
	for _, c := range s {
		cnt[c]++
	}
	for i := 1; i < 256; i++ {
		cnt[i] += cnt[i-1]
	}
	for i := n - 1; i >= 0; i-- {
		cnt[s[i]]--
		sa[cnt[s[i]]] = i
	}
	if n == 0 {
		return sa
	}
	rank[sa[0]] = 0
	classes := int32(1)
	for i := int32(1); i < n; i++ {
		if s[sa[i]] != s[sa[i-1]] {
			classes++
		}
		rank[sa[i]] = classes - 1
	}

	for k := int32(1); classes < n && k < n; k <<= 1 {
		// Order by second key: shifting each start back by k gives a
		// sequence already sorted by rank[(i+k) mod n].
		tmp := spare
		for i := int32(0); i < n; i++ {
			tmp[i] = sa[i] - k
			if tmp[i] < 0 {
				tmp[i] += n
			}
		}
		// Stable counting sort by first key rank[tmp[i]].
		for i := int32(0); i < classes; i++ {
			cnt[i] = 0
		}
		for i := int32(0); i < n; i++ {
			cnt[rank[tmp[i]]]++
		}
		for i := int32(1); i < classes; i++ {
			cnt[i] += cnt[i-1]
		}
		for i := n - 1; i >= 0; i-- {
			c := rank[tmp[i]]
			cnt[c]--
			sa[cnt[c]] = tmp[i]
		}
		// Recompute equivalence classes on (rank[i], rank[(i+k) mod n]).
		newRank := tmp
		classes = 1
		var prev [2]int32
		for i := int32(0); i < n; i++ {
			second := sa[i] + k
			if second >= n {
				second -= n
			}
			cur := [2]int32{rank[sa[i]], rank[second]}
			if i > 0 && cur != prev {
				classes++
			}
			newRank[sa[i]] = classes - 1
			prev = cur
		}
		rank, spare = newRank, rank
	}
	return sa
}

// mtfDecode inverts referenceMTFEncode.
func mtfDecode(data []byte) []byte {
	var list [256]byte
	for i := range list {
		list[i] = byte(i)
	}
	out := make([]byte, len(data))
	for k, idx := range data {
		b := list[idx]
		out[k] = b
		copy(list[1:int(idx)+1], list[:idx])
		list[0] = b
	}
	return out
}

func rle1Decode(data []byte) ([]byte, error) {
	out := make([]byte, 0, len(data)*2)
	runLen := 0
	var prev byte
	for i := 0; i < len(data); i++ {
		b := data[i]
		if runLen == 4 {
			// b is the extension count for the preceding run of four.
			for k := 0; k < int(b); k++ {
				out = append(out, prev)
			}
			runLen = 0
			continue
		}
		if len(out) > 0 && b == prev {
			runLen++
		} else {
			runLen = 1
		}
		prev = b
		out = append(out, b)
	}
	if runLen == 4 {
		return nil, errMissingRunCount
	}
	return out, nil
}

// referenceNext is the inverse transform's vector as it was before it was
// packed: next[j] is the row that follows row j, the one whose last byte
// is the occurrence in the last column of row j's first byte.
func referenceNext(last []byte) []int {
	var base [256]int
	for _, c := range last {
		base[c]++
	}
	sum := 0
	for c, k := range base {
		base[c], sum = sum, sum+k
	}
	next := make([]int, len(last))
	for i, c := range last {
		next[base[c]] = i
		base[c]++
	}
	return next
}

// referenceInverse is the inverse transform as the decoder ran it before it
// walked from both ends: one walk forwards along next from row ptr. On a
// column that is no transform it goes round ptr's cycle as often as it
// takes to read len(last) bytes.
func referenceInverse(last []byte, ptr int) []byte {
	if len(last) == 0 {
		return nil
	}
	next := referenceNext(last)
	out := make([]byte, len(last))
	p := next[ptr]
	for i := range out {
		out[i] = last[p]
		p = next[p]
	}
	return out
}

// cycleLen is the length of the cycle through ptr of the permutation next.
func cycleLen(next []int, ptr int) int {
	n := 1
	for p := next[ptr]; p != ptr; p = next[p] {
		n++
	}
	return n
}

// meetingRule reports whether row ptr of last lies on a cycle of next whose
// length divides the column's: what every column Compress writes
// satisfies, and where the decoder's two chains meet.
func meetingRule(last []byte, ptr int) bool {
	return len(last)%cycleLen(referenceNext(last), ptr) == 0
}

// rle2Decode inverts appendRLE2; the input must be EOB-terminated.
func rle2Decode(syms []uint16, maxSize int) ([]byte, error) {
	out := make([]byte, 0, len(syms)*2)
	run, bit := 0, 0
	flush := func() bool {
		if run == 0 {
			return true
		}
		if maxSize > 0 && len(out)+run > maxSize {
			return false
		}
		for k := 0; k < run; k++ {
			out = append(out, 0)
		}
		run, bit = 0, 0
		return true
	}
	for _, s := range syms {
		switch {
		case s == symRUNA:
			run += 1 << bit
			bit++
		case s == symRUNB:
			run += 2 << bit
			bit++
		case s == symEOB:
			if !flush() {
				return nil, errBlockTooLarge
			}
			return out, nil
		case s <= 256:
			if !flush() {
				return nil, errBlockTooLarge
			}
			if maxSize > 0 && len(out) >= maxSize {
				return nil, errBlockTooLarge
			}
			out = append(out, byte(s-1))
		default:
			return nil, errBadSymbol
		}
	}
	return nil, errMissingEOB
}

// TestFusedStagesMatchReference drives one decoder workspace — reused, so
// every block meets the leftovers of a larger or smaller one — through
// random symbol streams and last columns, and holds each fused stage to
// the unfused pipeline: same bytes, or both refuse.
func TestFusedStagesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	d := new(decoder)
	held, refused := 0, 0
	for round := 0; round < 400; round++ {
		// A symbol stream biased to runs, sometimes with a bad symbol or
		// no EOB, against a declared size that is right, short or long.
		nsym := rng.Intn(300)
		syms := make([]uint16, 0, nsym+1)
		for i := 0; i < nsym; i++ {
			switch r := rng.Intn(10); {
			case r < 5:
				syms = append(syms, uint16(rng.Intn(2)))
			case r < 9 || rng.Intn(50) > 0:
				syms = append(syms, uint16(2+rng.Intn(255)))
			default:
				syms = append(syms, uint16(258+rng.Intn(10)))
			}
			if len(syms) > 12 && syms[len(syms)-1] <= symRUNB && rng.Intn(3) == 0 {
				syms[len(syms)-1] = 2 // keep runs from reaching 2^13 too often
			}
		}
		if rng.Intn(20) > 0 {
			syms = append(syms, symEOB)
		}
		wantMTF, wantErr := rle2Decode(syms, 0)
		size := len(wantMTF) + []int{0, 0, 0, -1, 1, 7}[rng.Intn(6)]
		if size <= 0 {
			size = len(wantMTF)
		}
		if size == 0 {
			continue // the reference reads 0 as "no bound"; the fused stage has no such mode
		}
		wantMTF, wantErr = rle2Decode(syms, size)
		d.syms = syms
		gotErr := d.undoRLE2MTF(size)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("round %d: fused RLE2+MTF err %v, reference err %v", round, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		want := mtfDecode(wantMTF)
		if !bytes.Equal(d.last, want) {
			t.Fatalf("round %d: fused RLE2+MTF differs from reference (%d vs %d bytes)", round, len(d.last), len(want))
		}
		if d.freq != histogram(want) {
			t.Fatalf("round %d: the counts tallied with the column are not its histogram", round)
		}
		if len(want) == 0 {
			continue
		}

		// Treat that column as a BWT output at a random row, or at one on a
		// cycle whose length divides the column's if it has one, or take a
		// real transform instead. Where the meeting rule holds, inverting
		// it from both ends and undoing RLE1 fused must match the one walk
		// and RLE1 after; where it does not, the decoder must refuse.
		col, ptr := want, rng.Intn(len(want))
		switch rng.Intn(6) {
		case 0:
			if rows := dividingRows(col); len(rows) > 0 {
				ptr = rows[rng.Intn(len(rows))]
			}
		case 1, 2:
			block := make([]byte, 1+rng.Intn(200))
			for i := range block {
				block[i] = byte('a' + rng.Intn(1+rng.Intn(4)))
			}
			if rng.Intn(3) == 0 {
				block = bytes.Repeat(block[:1+len(block)/8], 1+rng.Intn(6)) // periodic
			}
			col, ptr = Transform(block)
			if k := len(block) / period(block); k > 1 && rng.Intn(2) == 0 {
				// Another of the k rows equal to the block: its cycle is
				// the j-th copies', and row 0 is on the first copies'.
				ptr += 1 + rng.Intn(k-1)
			}
			d.last, d.freq = bytes.Clone(col), histogram(col)
		case 3:
			ptr = 0 // the anchors coincide
		case 4:
			col = make([]byte, 1+rng.Intn(4))
			for i := range col {
				col[i] = byte(rng.Intn(3))
			}
			ptr = rng.Intn(len(col))
			d.last, d.freq = bytes.Clone(col), histogram(col)
		}
		rule := meetingRule(col, ptr)
		if rule {
			held++
		} else {
			refused++
		}
		var ref []byte
		refErr := errNotATransform
		if rule {
			ref, refErr = rle1Decode(referenceInverse(col, ptr))
		}
		prefix := []byte("kept")
		maxSize := 0
		if refErr == nil && rng.Intn(3) == 0 {
			maxSize = max(1, len(ref)-rng.Intn(3)) // exactly enough, or just short
		}
		got, err := d.undoBWTRLE1(append([]byte(nil), prefix...), ptr, len(prefix), maxSize)
		if err := checkVectors(d.next, d.lf, col); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !rule && !errors.Is(err, errNotATransform) {
			t.Fatalf("round %d: row %d of a %d-byte column is on a cycle of length %d, err %v", round, ptr, len(col), cycleLen(referenceNext(col), ptr), err)
		}
		overLimit := refErr == nil && maxSize > 0 && len(ref) > maxSize
		if (err != nil) != (refErr != nil || overLimit) {
			t.Fatalf("round %d: fused BWT+RLE1 err %v, reference err %v, over limit %v", round, err, refErr, overLimit)
		}
		if err == nil && !bytes.Equal(got, append(prefix, ref...)) {
			t.Fatalf("round %d: fused BWT+RLE1 differs from reference", round)
		}
	}
	if held < 50 || refused < 50 {
		t.Fatalf("the meeting rule held in %d rounds and failed in %d: too few of one to test it", held, refused)
	}
}

func histogram(b []byte) (h [256]uint32) {
	for _, c := range b {
		h[c]++
	}
	return h
}

// dividingRows lists the rows of last on a cycle of next whose length
// divides the column's.
func dividingRows(last []byte) []int {
	next := referenceNext(last)
	var rows []int
	for i := range last {
		if len(last)%cycleLen(next, i) == 0 {
			rows = append(rows, i)
		}
	}
	return rows
}

// checkVectors holds buildNext's packed vectors for the column last to the
// unpacked reference: next names the rows referenceNext does, lf is its
// inverse, and each entry's low byte is the last byte of the row it names.
func checkVectors(next, lf []uint32, last []byte) error {
	want := referenceNext(last)
	if len(next) != len(last) || len(lf) != len(last) {
		return fmt.Errorf("vectors of %d and %d entries for a %d-byte column", len(next), len(lf), len(last))
	}
	for j, v := range next {
		if int(v>>8) != want[j] || byte(v) != last[v>>8] {
			return fmt.Errorf("next[%d] = %d<<8|%d, want %d<<8|%d", j, v>>8, byte(v), want[j], last[want[j]])
		}
	}
	for i, w := range lf {
		if int(w>>8) >= len(next) || int(next[w>>8]>>8) != i || byte(w) != last[i] {
			return fmt.Errorf("lf[%d] = %d<<8|%d is not the inverse of next", i, w>>8, byte(w))
		}
	}
	return nil
}

// TestInverseMeetingRule inverts every row of short random columns, most of
// them no transform at all, of every column of one to five bytes over
// three letters, and of the transforms of random and periodic blocks:
// Inverse gives the one walk's bytes where the meeting rule holds and nil
// where it does not.
func TestInverseMeetingRule(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var cols [][]byte
	for round := 0; round < 2000; round++ {
		col := make([]byte, 1+rng.Intn(16))
		alpha := 1 + rng.Intn(4)
		for i := range col {
			col[i] = byte(rng.Intn(alpha))
		}
		cols = append(cols, col)
	}
	cols = append(cols, everyColumn(5, 3)...)
	for range 300 {
		cols = append(cols, transformOfRandomBlock(rng))
	}
	held, refused := 0, 0
	for _, col := range cols {
		for ptr := range col {
			got := Inverse(col, ptr)
			if !meetingRule(col, ptr) {
				refused++
				if got != nil {
					t.Fatalf("%v at row %d breaks the meeting rule, Inverse gave %v", col, ptr, got)
				}
				continue
			}
			held++
			if want := referenceInverse(col, ptr); !bytes.Equal(got, want) {
				t.Fatalf("%v at row %d: Inverse %v, one walk %v", col, ptr, got, want)
			}
		}
	}
	if held == 0 || refused == 0 {
		t.Fatalf("the rule held at %d rows and failed at %d: the columns no longer test both", held, refused)
	}
}

// everyColumn lists every column of 1 to n bytes over the first alpha
// byte values.
func everyColumn(n, alpha int) [][]byte {
	var cols [][]byte
	level := [][]byte{{}}
	for range n {
		var longer [][]byte
		for _, c := range level {
			for b := range alpha {
				longer = append(longer, append(bytes.Clone(c), byte(b)))
			}
		}
		cols, level = append(cols, longer...), longer
	}
	return cols
}

// transformOfRandomBlock is the last column of a random block of up to 300
// bytes over a few letters, a third of them periodic.
func transformOfRandomBlock(rng *rand.Rand) []byte {
	block := make([]byte, 1+rng.Intn(300))
	alpha := 1 + rng.Intn(4)
	for i := range block {
		block[i] = byte('a' + rng.Intn(alpha))
	}
	if rng.Intn(3) == 0 {
		block = bytes.Repeat(block[:1+len(block)/8], 1+rng.Intn(8))
	}
	col, _ := Transform(block)
	return col
}

// TestAnchoredInverse holds the walk from two anchors to what it claims
// for itself, on every row of the columns TestInverseMeetingRule inverts:
// it takes a row exactly when the row is not 0 and its cycle is the whole
// column — every row of every aperiodic transform but row 0 — and then
// writes the one walk's bytes. Every other row, ptr = 0, a periodic
// block's (row 0 on the row's cycle or off it) and any row of a column
// that is no transform, it leaves to inverse.
func TestAnchoredInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	cols := everyColumn(5, 3)
	for range 500 {
		cols = append(cols, transformOfRandomBlock(rng))
	}
	for range 500 {
		col := make([]byte, 1+rng.Intn(64))
		for i := range col {
			col[i] = byte(rng.Intn(1 + rng.Intn(4)))
		}
		cols = append(cols, col)
	}
	d := new(decoder)
	taken, left, periodicLeft := 0, 0, 0
	for _, col := range cols {
		d.freq = histogram(col)
		next, lf := d.buildNext(col)
		ref := referenceNext(col)
		for ptr := range col {
			dst, scratch := make([]byte, len(col)), make([]byte, len(col))
			got := anchoredInverse(dst, scratch, next, lf, ptr)
			cycle := cycleLen(ref, ptr)
			if want := ptr != 0 && cycle == len(col); got != want {
				t.Fatalf("%v at row %d, on a cycle of %d: anchoredInverse took it %v", col, ptr, cycle, got)
			}
			if !got {
				left++
				if ptr != 0 && len(col)%cycle == 0 {
					periodicLeft++
				}
				continue
			}
			taken++
			if want := referenceInverse(col, ptr); !bytes.Equal(dst, want) {
				t.Fatalf("%v at row %d: anchoredInverse %v, one walk %v", col, ptr, dst, want)
			}
		}
	}
	if taken < 1000 || left < 1000 || periodicLeft < 100 {
		t.Fatalf("took %d rows and left %d (%d of them periodic, not at row 0): too few of one to test it", taken, left, periodicLeft)
	}
}

// TestUndoRLE1 runs the RLE1 undo on streams built for its edge cases —
// a run of four ending the stream with no count, counts 0 and 255, a run
// at every offset of a word, a count byte equal to the run's byte, and a
// size limit met exactly and missed by one — each through the transform
// and its inverse, as a block decodes, and holds it to the byte-at-a-time
// decoder.
func TestUndoRLE1(t *testing.T) {
	streams := map[string][]byte{
		"no count at the end": []byte("abcdxxxx"),
		"only a run":          []byte("xxxx"),
		"count 0":             []byte("aaaa\x00b"),
		"count 255":           []byte("aaaa\xffbcdefgh"),
		"count is the byte":   []byte("aaaaaaaab"),
		"runs back to back":   []byte("aaaa\x01aaaa\x02aaa"),
		"three and three":     []byte("aaabbbaaabbb"),
	}
	for off := range 20 {
		s := append([]byte("0123456789ABCDEFGHIJ")[:off], "zzzz\x07tail"...)
		streams[fmt.Sprintf("run at %d", off)] = s
		streams[fmt.Sprintf("run at %d, no count", off)] = s[:off+4]
	}
	d := new(decoder)
	prefix := []byte("kept")
	for name, s := range streams {
		want, wantErr := rle1Decode(s)
		if nextRun(s) != scalarNextRun(s) {
			t.Fatalf("%s: nextRun %d, a byte at a time %d", name, nextRun(s), scalarNextRun(s))
		}
		col, ptr := Transform(s)
		limits := []int{0}
		if wantErr == nil {
			limits = append(limits, len(want), max(1, len(want)-1))
		}
		for _, maxSize := range limits {
			d.last, d.freq = bytes.Clone(col), histogram(col)
			got, err := d.undoBWTRLE1(bytes.Clone(prefix), ptr, len(prefix), maxSize)
			switch {
			case wantErr != nil:
				if !errors.Is(err, wantErr) {
					t.Errorf("%s: err %v, want %v", name, err, wantErr)
				}
			case maxSize > 0 && len(want) > maxSize:
				if err == nil {
					t.Errorf("%s: %d bytes under a limit of %d accepted", name, len(want), maxSize)
				}
			case err != nil || !bytes.Equal(got, append(bytes.Clone(prefix), want...)):
				t.Errorf("%s, limit %d: got %q (%v), want %q", name, maxSize, got, err, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(29))
	for range 2000 {
		s := make([]byte, rng.Intn(80))
		for i := range s {
			s[i] = byte(rng.Intn(1 + rng.Intn(3)))
		}
		if nextRun(s) != scalarNextRun(s) {
			t.Fatalf("%v: nextRun %d, a byte at a time %d", s, nextRun(s), scalarNextRun(s))
		}
	}
}

// scalarNextRun is nextRun a byte at a time.
func scalarNextRun(rle []byte) int {
	for p := 0; p+4 <= len(rle); p++ {
		if rle[p] == rle[p+1] && rle[p] == rle[p+2] && rle[p] == rle[p+3] {
			return p
		}
	}
	return len(rle)
}

// TestBlockFitsThePackedVectors: the longest column the decoder lets a
// stream declare fits the 24 bits a packed vector entry gives a row.
func TestBlockFitsThePackedVectors(t *testing.T) {
	if longest := columnBudget(9); longest > maxColumn {
		t.Fatalf("a level-9 column may be %d bytes, the vectors hold %d", longest, maxColumn)
	}
	if Inverse(make([]byte, maxColumn+1), 0) != nil {
		t.Fatal("Inverse took a column longer than its vectors hold")
	}
}
