package lzw

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/flate"
	"repro/internal/workload"
)

// Compress as it was before its table stopped being cleared a MiB at a
// time — a fresh 2^17-slot open-addressed table, every key set to the
// empty marker on entry and again at each ratio reset — kept as the
// reference the encoder's bytes are held to.

const hashSize = 1 << 17

type referenceTable struct {
	entries [hashSize]dictEntry
}

func (h *referenceTable) clear() {
	for i := range h.entries {
		h.entries[i].key = ^uint32(0)
	}
}

func (h *referenceTable) lookup(k uint32) (uint16, bool) {
	i := (k * 2654435761) % hashSize
	for {
		e := h.entries[i]
		if e.key == ^uint32(0) {
			return 0, false
		}
		if e.key == k {
			return e.code, true
		}
		i = (i + 1) % hashSize
	}
}

func (h *referenceTable) insert(k uint32, code uint16) {
	i := (k * 2654435761) % hashSize
	for h.entries[i].key != ^uint32(0) {
		i = (i + 1) % hashSize
	}
	h.entries[i] = dictEntry{key: k, code: code}
}

func referenceCompress(data []byte, maxBits int) []byte {
	out, _ := referenceCompressResets(data, maxBits)
	return out
}

// referenceCompressResets also reports how often the table was cleared.
func referenceCompressResets(data []byte, maxBits int) (out []byte, resets int) {
	out = []byte{magicByte1, magicByte2, byte(maxBits) | blockModeFlag}
	if len(data) == 0 {
		return out, 0
	}
	table := new(referenceTable)
	table.clear()
	nextCode := firstCode
	width := uint(MinBits)
	maxCode := 1<<maxBits - 1

	inBytes, outBits := 0, 0
	lastCheck := 0
	var lastRatio float64

	var acc uint32
	var accBits uint
	emit := func(code uint16) {
		acc |= uint32(code) << accBits
		accBits += width
		for accBits >= 8 {
			out = append(out, byte(acc))
			acc >>= 8
			accBits -= 8
		}
		outBits += int(width)
	}

	prefix := uint16(data[0])
	inBytes = 1
	for _, c := range data[1:] {
		inBytes++
		k := key(prefix, c)
		if code, ok := table.lookup(k); ok {
			prefix = code
			continue
		}
		emit(prefix)
		if nextCode <= maxCode {
			table.insert(k, uint16(nextCode))
			nextCode++
			if nextCode == 1<<width && width < uint(maxBits) {
				width++
			}
		} else if inBytes-lastCheck >= checkGap {
			lastCheck = inBytes
			ratio := float64(inBytes*8) / float64(outBits+1)
			if ratio < lastRatio {
				emit(clearCode)
				table.clear()
				resets++
				nextCode = firstCode
				width = MinBits
				lastRatio = 0
			} else {
				lastRatio = ratio
			}
		}
		prefix = uint16(c)
	}
	emit(prefix)
	if accBits > 0 {
		out = append(out, byte(acc))
	}
	return out, resets
}

// checkEncode requires Compress to write the reference's bytes for data at
// every width in bits, whatever the pooled workspace held before.
func checkEncode(t testing.TB, data []byte, bits ...int) {
	t.Helper()
	for _, b := range bits {
		got, err := Compress(data, b)
		if err != nil {
			t.Fatalf("Compress -b%d: %v", b, err)
		}
		if !bytes.Equal(got, referenceCompress(data, b)) {
			t.Fatalf("Compress -b%d of %d bytes differs from the reference encoder's stream", b, len(data))
		}
	}
}

// shifting is data whose statistics change every 64 kB, so a full table's
// ratio decays and the encoder clears it, several times over.
func shifting(n int) []byte {
	var out []byte
	for seed := uint64(1); len(out) < n; seed++ {
		c := []workload.Class{workload.ClassSource, workload.ClassMedia, workload.ClassXML, workload.ClassBinary}[seed%4]
		out = append(out, workload.Generate(c, 64<<10, seed)...)
	}
	return out[:n]
}

// encodeSeeds is FuzzLZWEncodeIdentical's corpus.
func encodeSeeds() [][]byte {
	noise := make([]byte, 40<<10)
	rand.New(rand.NewSource(22)).Read(noise)
	return [][]byte{
		nil, {0}, []byte("ab"), bytes.Repeat([]byte{'a'}, 3000), noise,
		[]byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 200)),
		workload.Generate(workload.ClassSource, 20<<10, 22),
		shifting(300 << 10),
	}
}

// FuzzLZWEncodeIdentical holds Compress to the reference encoder byte for
// byte on arbitrary data x, at the paper's 16 bits and at a width x picks,
// after unrelated data y has been through the pooled workspace: a table
// that is not wiped between streams must not remember the last one.
func FuzzLZWEncodeIdentical(f *testing.F) {
	seeds := encodeSeeds()
	for _, x := range seeds {
		f.Add(x, seeds[4])
		f.Add(x, seeds[len(seeds)-1])
	}
	f.Fuzz(func(t *testing.T, x, y []byte) {
		if _, err := Compress(y, MaxBits); err != nil {
			t.Fatal(err)
		}
		bits := MinBits
		if len(x) > 0 {
			bits += int(x[0]) % (MaxBits - MinBits + 1)
		}
		checkEncode(t, x, MaxBits, bits)
	})
}

// benchFiles is workload.BenchFiles measured by flate's gzip -6.
func benchFiles(tb testing.TB) []workload.BenchFile {
	return workload.BenchFiles(func(b []byte) float64 {
		c, err := flate.GzipCompress(b, 6)
		if err != nil {
			tb.Fatal(err)
		}
		return float64(len(b)) / float64(len(c))
	})
}

// blockBytes is the dataplane's block (selective.BlockSize): what a cold
// compress miss encodes.
const blockBytes = 128 * 1000

// benchDigests are the first eight bytes of the SHA-256 of each bench file's
// compress artifact — Compress at 16 bits of every 128 kB block, one after
// another — as the parent of the stamped table wrote it.
var benchDigests = map[string]string{
	"prog.c":     "42691b4301548082",
	"spec.html":  "42073329fcf6f2dc",
	"tool.bin":   "d3182c0c6a201912",
	"paper.ps":   "e1f54f36af5a2c27",
	"deck.mixed": "04f18d041d074387",
	"media.r115": "a3089eec2b1880c7",
}

// TestBenchFilesMatchReference is the byte-identity claim on the data the
// benchmark serves: every 128 kB block of its six files, as the dataplane
// compresses them, and each whole file — long enough for ratio resets —
// compresses to the reference encoder's stream, and each file's artifact
// to the bytes recorded at the parent.
func TestBenchFilesMatchReference(t *testing.T) {
	for _, f := range benchFiles(t) {
		sum := sha256.New()
		for off := 0; off < len(f.Data); off += blockBytes {
			block := f.Data[off:min(off+blockBytes, len(f.Data))]
			got, err := Compress(block, MaxBits)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, referenceCompress(block, MaxBits)) {
				t.Errorf("%s block at %d: stream differs from the reference encoder's", f.Name, off)
			}
			sum.Write(got)
		}
		if got := hex.EncodeToString(sum.Sum(nil)[:8]); got != benchDigests[f.Name] {
			t.Errorf("%s: compress artifact digest %s, recorded %q", f.Name, got, benchDigests[f.Name])
		}
		checkEncode(t, f.Data, MaxBits, 12)
	}
	// The reset path is part of the claim only if these inputs take it.
	if _, resets := referenceCompressResets(shifting(300<<10), MaxBits); resets == 0 {
		t.Error("the shifting seed never clears a 16-bit table")
	}
}

// TestTableEpochComesRound: the table is emptied by advancing a 16-bit
// epoch, so clear number 65,536 must wipe the slots — else entries stamped
// a full cycle ago would be live again. At the table: keys of every epoch
// around the wrap are gone after the next clear. Through Compress: a
// workspace about to wrap still writes the reference's stream, resets
// included.
func TestTableEpochComesRound(t *testing.T) {
	h := new(hashTable)
	*h = h.fit(1<<16, MaxBits).clear()
	h.insert(key(1, 'a'), 300) // stamped with epoch 1: what a wrap without a wipe would revive
	h.epoch = ^uint16(0) - 1
	for round := 0; round < 4; round++ {
		*h = h.clear()
		if _, ok := h.lookup(key(1, 'a')); ok {
			t.Fatalf("epoch %d: an entry of an earlier epoch is live", h.epoch)
		}
		if h.epoch == 0 {
			t.Fatal("epoch 0 is what a wiped slot carries: it must never be the table's")
		}
		h.insert(key(1, 'a'), uint16(400+round))
		if code, ok := h.lookup(key(1, 'a')); !ok || code != uint16(400+round) {
			t.Fatalf("epoch %d: inserted code not found", h.epoch)
		}
	}

	data := shifting(300 << 10)
	for i := 0; i < 3; i++ {
		e := encoderPool.Get().(*encoder)
		e.table.epoch = ^uint16(0) - 1 // the stream's resets carry it over the wrap
		encoderPool.Put(e)
		checkEncode(t, data, MaxBits)
	}
}
