package energy

import (
	"testing"

	"repro/internal/codec"
)

func TestGzipDecompressCostMatchesPaperFit(t *testing.T) {
	// td = 0.161*s + 0.161*sc + 0.004 for s=1 MB, sc=0.25 MB.
	m := DecompressCost(codec.Gzip)
	got := m.Seconds(250_000, 1_000_000, 1).Seconds()
	want := 0.161*1.0 + 0.161*0.25 + 0.004
	if !almost(got, want, 1e-9) {
		t.Errorf("td = %v, want %v", got, want)
	}
}

// TestParamsForChargesGzipEveryScheme pins the charge seam: at every rate
// row, a fetch of every scheme is charged gzip's row of the decompression
// table. Step 1c of ROADMAP item 13 turns this into each scheme's own row.
func TestParamsForChargesGzipEveryScheme(t *testing.T) {
	m := DecompressCost(codec.Gzip)
	for _, r := range Rates() {
		want := r.ParamsFor(codec.Gzip)
		if want.TdA != m.PerOutMB || want.TdB != m.PerInMB || want.TdC != m.PerStream {
			t.Errorf("%s: td = %v·s + %v·sc + %v, want gzip's row %+v", r.Name, want.TdA, want.TdB, want.TdC, m)
		}
		for _, s := range codec.Schemes() {
			if got := r.ParamsFor(s); got != want {
				t.Errorf("%s, %s: ParamsFor = %+v, want gzip's %+v", r.Name, s, got, want)
			}
		}
	}
}

func TestBzip2CostsSeveralTimesGzip(t *testing.T) {
	in, out := 300_000, 1_000_000
	g := DecompressCost(codec.Gzip).Seconds(in, out, 1)
	b := DecompressCost(codec.Bzip2).Seconds(in, out, 4)
	if ratio := b.Seconds() / g.Seconds(); ratio < 2.5 {
		t.Errorf("bzip2/gzip decompress ratio %.2f, want > 2.5", ratio)
	}
	c := DecompressCost(codec.Compress).Seconds(in, out, 1)
	if c >= g {
		t.Errorf("LZW decode (%v) should be cheaper than gzip (%v)", c, g)
	}
}
