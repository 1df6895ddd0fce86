package selective

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/codec"
	"repro/internal/energy"
	"repro/internal/workload"
)

func gzipCodec(t testing.TB) codec.Codec {
	t.Helper()
	c, err := codec.New(codec.Zlib, 9)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func modelDecider() ModelDecider {
	return ModelDecider{Params: energy.Params11Mbps()}
}

func TestRoundTripText(t *testing.T) {
	data := []byte(strings.Repeat("selective compression of mixed content ", 20000))
	enc, err := Encode(data, gzipCodec(t), modelDecider())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	st := enc.Stats()
	if st.BlocksCompressed != st.BlocksTotal {
		t.Errorf("compressible text: %d/%d blocks compressed", st.BlocksCompressed, st.BlocksTotal)
	}
	if st.Factor < 5 {
		t.Errorf("container factor %.2f", st.Factor)
	}
}

func TestRandomDataAllRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	data := make([]byte, 600_000)
	rng.Read(data)
	enc, err := Encode(data, gzipCodec(t), modelDecider())
	if err != nil {
		t.Fatal(err)
	}
	st := enc.Stats()
	if st.BlocksCompressed != 0 {
		t.Errorf("random data: %d blocks compressed", st.BlocksCompressed)
	}
	// Overhead must be only framing: a few bytes per 128 KB block.
	if st.WireBytes > st.RawBytes+st.BlocksTotal*16+32 {
		t.Errorf("raw overhead too high: %d vs %d", st.WireBytes, st.RawBytes)
	}
	got, err := Decode(enc.Bytes(), 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}
}

func TestSmallFileNeverCompressed(t *testing.T) {
	// Below the 3900-byte threshold even perfectly compressible data goes
	// raw.
	data := bytes.Repeat([]byte{'a'}, 3000)
	enc, err := Encode(data, gzipCodec(t), modelDecider())
	if err != nil {
		t.Fatal(err)
	}
	if enc.Stats().BlocksCompressed != 0 {
		t.Error("sub-threshold file was compressed")
	}
	// Just above the threshold it should compress.
	data = bytes.Repeat([]byte{'a'}, 5000)
	enc, err = Encode(data, gzipCodec(t), modelDecider())
	if err != nil {
		t.Fatal(err)
	}
	if enc.Stats().BlocksCompressed == 0 {
		t.Error("above-threshold compressible file went raw")
	}
}

func TestMixedFilePerBlockDecisions(t *testing.T) {
	data := workload.MixedFile(1024*1024, 9)
	enc, err := Encode(data, gzipCodec(t), modelDecider())
	if err != nil {
		t.Fatal(err)
	}
	st := enc.Stats()
	if st.BlocksCompressed == 0 || st.BlocksCompressed == st.BlocksTotal {
		t.Errorf("mixed file should split decisions: %d/%d", st.BlocksCompressed, st.BlocksTotal)
	}
	got, err := Decode(enc.Bytes(), 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}
}

// TestNeverLargerThanRawPlusFraming is the paper's headline property: the
// adaptive scheme never materially exceeds the uncompressed transfer.
func TestNeverLargerThanRawPlusFraming(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(400_000)
		data := make([]byte, n)
		alpha := 1 + rng.Intn(255)
		for i := range data {
			data[i] = byte(rng.Intn(alpha))
		}
		enc, err := Encode(data, gzipCodec(t), modelDecider())
		if err != nil {
			return false
		}
		st := enc.Stats()
		blocks := n/BlockSize + 1
		if st.WireBytes > n+blocks*blockHeaderLen+headerLen+1 {
			return false
		}
		got, err := Decode(enc.Bytes(), 0)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyInput(t *testing.T) {
	enc, err := Encode(nil, gzipCodec(t), modelDecider())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("decoded %d bytes", len(got))
	}
}

func TestPaperDeciderMatchesModelDecider(t *testing.T) {
	m := modelDecider()
	p := PaperDecider{}
	agree, total := 0, 0
	for _, raw := range []int{5000, 50_000, 128_000, 400_000} {
		for _, f := range []float64{1.05, 1.2, 1.5, 3, 10} {
			comp := int(float64(raw) / f)
			total++
			if m.ShouldCompress(raw, comp) == p.ShouldCompress(raw, comp) {
				agree++
			}
		}
	}
	if agree < total-2 {
		t.Errorf("model and paper deciders agree on only %d/%d", agree, total)
	}
	if p.MinSizeBytes() != 3900 {
		t.Errorf("paper threshold %d", p.MinSizeBytes())
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	data := []byte(strings.Repeat("corruption ", 2000))
	enc, err := Encode(data, gzipCodec(t), AlwaysCompress{})
	if err != nil {
		t.Fatal(err)
	}
	stream := enc.Bytes()
	if _, err := Decode(stream[:10], 0); err == nil {
		t.Error("truncated container accepted")
	}
	bad := append([]byte{}, stream...)
	bad[0] = 'X'
	if _, err := Decode(bad, 0); err == nil {
		t.Error("bad magic accepted")
	}
	bad2 := append([]byte{}, stream...)
	bad2[headerLen] = 0x42 // invalid flag
	if _, err := Decode(bad2, 0); err == nil {
		t.Error("bad flag accepted")
	}
	if _, err := Decode(stream[:len(stream)-1], 0); err == nil {
		t.Error("missing end marker accepted")
	}
}

func TestDecodeMaxSizeGuard(t *testing.T) {
	data := bytes.Repeat([]byte{'g'}, 300_000)
	enc, err := Encode(data, gzipCodec(t), AlwaysCompress{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc.Bytes(), 1000); err == nil {
		t.Error("bomb guard did not trip")
	}
}

func TestCompressionSchemesOtherThanZlib(t *testing.T) {
	data := workload.Generate(workload.ClassSource, 300_000, 3)
	for _, s := range codec.Schemes() {
		c, err := codec.New(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := Encode(data, c, modelDecider())
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got, err := Decode(enc.Bytes(), 0)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%v round trip: %v", s, err)
		}
	}
}

func TestParseReturnsBlockLayout(t *testing.T) {
	data := workload.MixedFile(512*1024, 4)
	enc, err := Encode(data, gzipCodec(t), modelDecider())
	if err != nil {
		t.Fatal(err)
	}
	blocks, scheme, err := Parse(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if scheme != codec.Zlib {
		t.Errorf("scheme %v", scheme)
	}
	if len(blocks) != len(enc.Blocks) {
		t.Errorf("parsed %d blocks, encoded %d", len(blocks), len(enc.Blocks))
	}
	total := 0
	for _, b := range blocks {
		total += b.RawLen
	}
	if total != len(data) {
		t.Errorf("raw lengths sum to %d", total)
	}
}

// TestContainerMutationNeverPanicsOrLies: single-byte mutations of a valid
// container must fail or decode to the exact original (per-block lengths
// and the codec's own integrity checks catch corruption).
func TestContainerMutationNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	data := workload.MixedFile(300_000, 6)
	enc, err := Encode(data, gzipCodec(t), modelDecider())
	if err != nil {
		t.Fatal(err)
	}
	stream := enc.Bytes()
	for trial := 0; trial < 200; trial++ {
		bad := append([]byte{}, stream...)
		bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		out, err := Decode(bad, 2*len(data))
		if err == nil && len(out) > 2*len(data) {
			t.Fatalf("trial %d: bomb guard bypassed (%d bytes)", trial, len(out))
		}
	}
}

func TestEncodeBlocksCustomSizes(t *testing.T) {
	data := workload.MixedFile(600_000, 8)
	for _, bs := range []int{16_000, 64_000, 256_000, 1_000_000} {
		enc, err := EncodeBlocks(data, gzipCodec(t), modelDecider(), bs)
		if err != nil {
			t.Fatalf("bs %d: %v", bs, err)
		}
		got, err := Decode(enc.Bytes(), 0)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("bs %d: round trip: %v", bs, err)
		}
		wantBlocks := (len(data) + bs - 1) / bs
		if enc.Stats().BlocksTotal != wantBlocks {
			t.Errorf("bs %d: %d blocks, want %d", bs, enc.Stats().BlocksTotal, wantBlocks)
		}
	}
	if _, err := EncodeBlocks(data, gzipCodec(t), modelDecider(), 0); err == nil {
		t.Error("zero block size accepted")
	}
}

func TestUploadDeciderBehaviour(t *testing.T) {
	d := UploadDecider{
		Params:    energy.Params11Mbps(),
		PerInMB:   0.36, // handheld zlib -1
		PerOutMB:  0.072,
		PerStream: 0.0045,
	}
	// High factor on a full block: compress.
	if !d.ShouldCompress(128_000, 16_000) {
		t.Error("factor 8 upload block should compress")
	}
	// Marginal factor: the compression cost kills it.
	if d.ShouldCompress(128_000, 120_000) {
		t.Error("factor 1.07 upload block should go raw")
	}
	if d.MinSizeBytes() < 3000 {
		t.Errorf("upload min size %d implausibly low", d.MinSizeBytes())
	}
}

// ModelDecider drives decisions from the analytic energy model.
type ModelDecider struct {
	Params energy.Params
}

var _ Decider = ModelDecider{}

// ShouldCompress applies Equation 6 via the model.
func (d ModelDecider) ShouldCompress(rawBytes, compBytes int) bool {
	return d.Params.ShouldCompress(float64(rawBytes)/1e6, float64(compBytes)/1e6)
}

// MinSizeBytes returns the model's file-size threshold (≈3900 bytes).
func (d ModelDecider) MinSizeBytes() int {
	return int(d.Params.ThresholdSizeBytes())
}
