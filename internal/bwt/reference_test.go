package bwt

import (
	"bytes"
	"math/rand"
	"testing"
)

// The decode stages as they were before the workspace fused them — each
// allocating its own output — kept as the reference the fused kernels are
// held to, and as what the stage tests in bwt_test.go call. The encode
// stages and the sorter are thin adapters onto the production code.

func mtfEncode(data []byte) []byte {
	out := bytes.Clone(data)
	mtfEncodeInPlace(out)
	return out
}

func rle1Encode(data []byte) []byte { return appendRLE1(nil, data) }

func rle2Encode(mtf []byte) []uint16 { return appendRLE2(nil, mtf) }

func cyclicSort(s []byte) []int {
	sa := new(encoder).cyclicSort(s)
	out := make([]int, len(sa))
	for i, p := range sa {
		out[i] = int(p)
	}
	return out
}

// mtfDecode inverts mtfEncode.
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

// rle2Decode inverts rle2Encode; the input must be EOB-terminated.
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
		if len(want) == 0 {
			continue
		}

		// Treat that column as a BWT output at a random row: whatever it
		// inverts to, RLE1-decoding it fused must match doing it after.
		ptr := rng.Intn(len(want))
		ref, refErr := rle1Decode(Inverse(want, ptr))
		prefix := []byte("kept")
		maxSize := 0
		if refErr == nil && rng.Intn(3) == 0 {
			maxSize = max(1, len(ref)-rng.Intn(3)) // exactly enough, or just short
		}
		got, err := d.undoBWTRLE1(append([]byte(nil), prefix...), ptr, len(prefix), maxSize)
		overLimit := refErr == nil && maxSize > 0 && len(ref) > maxSize
		if (err != nil) != (refErr != nil || overLimit) {
			t.Fatalf("round %d: fused BWT+RLE1 err %v, reference err %v, over limit %v", round, err, refErr, overLimit)
		}
		if err == nil && !bytes.Equal(got, append(prefix, ref...)) {
			t.Fatalf("round %d: fused BWT+RLE1 differs from reference", round)
		}
	}
}
