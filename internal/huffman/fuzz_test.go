package huffman

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitio"
)

// The fuzzed decoders stay inside what the two callers ever build: code
// lengths up to 20 (the bzip2-style coder's cap; DEFLATE stops at 15)
// over at most 320 symbols (DEFLATE's lit/len alphabet has 288). Under
// those bounds one decoder, both lookup tables built, must stay below the
// malicious-server suite's allocation bound.
const (
	fuzzMaxLen   = 20
	fuzzMaxSyms  = 320
	fuzzMaxDecod = 512
	allocBound   = 16 << 20
)

func fuzzLengths(raw []byte) []uint8 {
	lengths := make([]uint8, min(len(raw), fuzzMaxSyms))
	for i := range lengths {
		lengths[i] = raw[i] % (fuzzMaxLen + 1)
	}
	return lengths
}

// decodeAll decodes stream with d in both orientations, through the
// tables and through the bit walker, until each first refuses, and
// checks that table and walker agree symbol for symbol.
func decodeAll(d *Decoder, stream []byte) (lsb, msb []int, err error) {
	var out [2][]int
	for o, order := range []string{"LSB", "MSB"} {
		table, walker := decoders(d, stream, o == 1)
		for len(out[o]) < fuzzMaxDecod {
			s, err := table()
			w, werr := walker()
			if (err != nil) != (werr != nil) || (err == nil && s != w) {
				return nil, nil, fmt.Errorf("%s symbol %d: table %d (%v), walker %d (%v)", order, len(out[o]), s, err, w, werr)
			}
			if err != nil {
				break
			}
			out[o] = append(out[o], s)
		}
	}
	return out[0], out[1], nil
}

// checkReset is the differential oracle: a decoder built fresh for
// lengths and one Reset to them after serving another code (tables built
// and used) must both refuse, or decode stream identically.
func checkReset(lengths, other []uint8, stream []byte) error {
	fresh, freshErr := NewDecoder(lengths)
	used := new(Decoder)
	if used.Reset(other) == nil {
		if _, _, err := decodeAll(used, stream); err != nil {
			return fmt.Errorf("other code: %v", err)
		}
	}
	usedErr := used.Reset(lengths)
	if (freshErr != nil) != (usedErr != nil) {
		return fmt.Errorf("NewDecoder err %v, Reset err %v", freshErr, usedErr)
	}
	if freshErr != nil {
		if !errors.Is(freshErr, ErrInvalidLengths) {
			return fmt.Errorf("NewDecoder err %v, want ErrInvalidLengths", freshErr)
		}
		return nil
	}
	fl, fm, err := decodeAll(fresh, stream)
	if err != nil {
		return fmt.Errorf("fresh decoder: %v", err)
	}
	ul, um, err := decodeAll(used, stream)
	if err != nil {
		return fmt.Errorf("reset decoder: %v", err)
	}
	if !slices.Equal(fl, ul) || !slices.Equal(fm, um) {
		return fmt.Errorf("reset decoder read %d/%d symbols, fresh %d/%d, or different ones", len(ul), len(um), len(fl), len(fm))
	}
	return nil
}

// seedCodes is the seed corpus of length vectors.
func seedCodes() map[string][]uint8 {
	codes := tableCodes()
	codes["empty"] = nil
	codes["all-zero"] = make([]uint8, 30)
	codes["oversubscribed"] = []uint8{1, 1, 1}
	codes["incomplete"] = []uint8{2, 2, 2}
	codes["two-symbols"] = []uint8{1, 1}
	// One code per root-table prefix at full depth: the largest tables the
	// fuzzed bounds allow.
	wide := make([]uint8, fuzzMaxSyms)
	for i := range wide {
		wide[i] = fuzzMaxLen
	}
	codes["wide-deep-incomplete"] = wide
	fixed := make([]uint8, 288) // DEFLATE's fixed lit/len code
	for i := range fixed {
		switch {
		case i < 144:
			fixed[i] = 8
		case i < 256:
			fixed[i] = 9
		case i < 280:
			fixed[i] = 7
		default:
			fixed[i] = 8
		}
	}
	codes["deflate-fixed"] = fixed
	return codes
}

// TestResetReuse crosses every seed code with every other.
func TestResetReuse(t *testing.T) {
	stream := make([]byte, 600)
	for i := range stream {
		stream[i] = byte(i * 151)
	}
	seeds := seedCodes()
	for xn, x := range seeds {
		for yn, y := range seeds {
			if err := checkReset(x, y, stream); err != nil {
				t.Errorf("%s after %s: %v", xn, yn, err)
			}
		}
	}
}

// TestResetRejectsUnrepresentableCodes: lengths the uint32 code space
// cannot hold are refused, not indexed with.
func TestResetRejectsUnrepresentableCodes(t *testing.T) {
	if _, err := NewDecoder([]uint8{1, maxCodeLen + 1}); !errors.Is(err, ErrInvalidLengths) {
		t.Errorf("length %d: err = %v", maxCodeLen+1, err)
	}
	if _, err := NewDecoder([]uint8{255, 255}); !errors.Is(err, ErrInvalidLengths) {
		t.Errorf("length 255: err = %v", err)
	}
}

// FuzzHuffmanNewDecoder builds decoders from arbitrary length vectors —
// fresh, and Reset after an unrelated vector — and decodes an arbitrary
// stream with both: no panic, the same verdict, the same symbols, table
// and walker in agreement, bounded allocation; and symbols drawn from the
// stream must survive encode/decode through a valid code.
func FuzzHuffmanNewDecoder(f *testing.F) {
	seeds := seedCodes()
	stream := []byte("any bytes make a bit stream; these are as good as others")
	for _, x := range seeds {
		f.Add([]byte(x), []byte(seeds["deep20"]), stream)
		f.Add([]byte(x), []byte(seeds["wide-deep-incomplete"]), stream)
	}
	f.Fuzz(func(t *testing.T, rawX, rawY, stream []byte) {
		lengths, other := fuzzLengths(rawX), fuzzLengths(rawY)
		if err := checkReset(lengths, other, stream); err != nil {
			t.Fatal(err)
		}

		var m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m1)
		d, err := NewDecoder(lengths)
		if err == nil {
			d.lsbTable()
			d.msbTable()
		}
		runtime.ReadMemStats(&m2)
		if got := m2.TotalAlloc - m1.TotalAlloc; got > allocBound {
			t.Fatalf("a decoder over %d symbols allocated %d", len(lengths), got)
		}
		if err != nil {
			return
		}

		var live []int
		for s, l := range lengths {
			if l > 0 {
				live = append(live, s)
			}
		}
		syms := make([]int, len(stream))
		for i, b := range stream {
			syms[i] = live[int(b)%len(live)]
		}
		codes, err := CanonicalCodes(lengths)
		if err != nil {
			t.Fatalf("CanonicalCodes of lengths NewDecoder accepted: %v", err)
		}
		var lw bitio.LSBWriter
		var mw bitio.MSBWriter
		for _, s := range syms {
			lw.WriteBits(uint64(Reverse(codes[s], lengths[s])), uint(lengths[s]))
			mw.WriteBits(uint64(codes[s]), uint(lengths[s]))
		}
		_, _ = lw.Flush(), mw.Flush()
		var lr bitio.LSBReader
		lr.Reset(lw.Bytes())
		mr := bitio.NewMSBReader(mw.Bytes())
		for i, want := range syms {
			if got, err := d.DecodeLSB(&lr); err != nil || got != want {
				t.Fatalf("LSB round trip symbol %d: got %d (%v), want %d", i, got, err, want)
			}
			if got, err := d.DecodeMSB(mr); err != nil || got != want {
				t.Fatalf("MSB round trip symbol %d: got %d (%v), want %d", i, got, err, want)
			}
		}
	})
}

// appendMSBLoop is what AppendMSB stands for: DecodeMSB a symbol at a
// time, until stop or past limit.
func appendMSBLoop(d *Decoder, dst []uint16, br *bitio.MSBReader, stop, limit int) ([]uint16, error) {
	for {
		s, err := d.DecodeMSB(br)
		if err != nil {
			return dst, err
		}
		dst = append(dst, uint16(s))
		if s == stop {
			return dst, nil
		}
		if len(dst) > limit {
			return dst, errRunaway
		}
	}
}

// bitsLeft drains br a bit at a time, through its refusal.
func bitsLeft(br *bitio.MSBReader) []uint64 {
	var bits []uint64
	for br.Err() == nil {
		bits = append(bits, br.ReadBits(1))
	}
	return bits
}

// FuzzAppendMSB holds AppendMSB to a DecodeMSB loop over a code built from
// arbitrary lengths and an arbitrary stream, for a stop symbol, a limit
// and a few symbols already in dst drawn from the input: the same
// symbols, the same error, and the same bits left in the reader.
func FuzzAppendMSB(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw, stream []byte, stop, limit uint16, held uint8) {
		lengths := fuzzLengths(raw)
		d, err := NewDecoder(lengths)
		if err != nil {
			return
		}
		stopSym, lim := int(stop)%(len(lengths)+1), int(limit%2048)
		pre := make([]uint16, held%4)
		br, wantBr := bitio.NewMSBReader(stream), bitio.NewMSBReader(stream)
		got, err := d.AppendMSB(slices.Clone(pre), br, stopSym, lim)
		want, wantErr := appendMSBLoop(d, slices.Clone(pre), wantBr, stopSym, lim)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("AppendMSB err %v, DecodeMSB loop err %v", err, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("AppendMSB gave %d symbols, the loop %d, or different ones", len(got), len(want))
		}
		if left, wantLeft := bitsLeft(br), bitsLeft(wantBr); !slices.Equal(left, wantLeft) {
			t.Fatalf("AppendMSB left %d bits in the reader, the loop %d, or different ones", len(left), len(wantLeft))
		}
	})
}
