package workload

import (
	"bytes"
	"testing"

	"repro/internal/codec"
)

func TestTable2Complete(t *testing.T) {
	specs := Table2()
	if len(specs) != 37 {
		t.Errorf("Table 2 has %d entries, want 37", len(specs))
	}
	large, small := 0, 0
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Errorf("duplicate file %q", s.Name)
		}
		seen[s.Name] = true
		if s.Size <= 0 {
			t.Errorf("%s: bad size %d", s.Name, s.Size)
		}
		if s.PaperGzip <= 0 || s.PaperCompress <= 0 || s.PaperBzip2 <= 0 {
			t.Errorf("%s: missing paper factors", s.Name)
		}
		if s.Description == "" {
			t.Errorf("%s: missing Table 3 description", s.Name)
		}
		if s.Large {
			large++
		} else {
			small++
		}
	}
	if large != 23 || small != 14 {
		t.Errorf("large/small = %d/%d, want 23/14", large, small)
	}
}

func TestSmallFilesAreSmall(t *testing.T) {
	for _, s := range Table2() {
		if s.Large && s.Size < 100_000 || !s.Large && s.Size > 100_000 {
			t.Errorf("%s: %d bytes, in the large group: %v", s.Name, s.Size, s.Large)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, ok := ByName("mail0")
	if !ok {
		t.Fatal("mail0 missing")
	}
	a := spec.Generate()
	b := spec.Generate()
	if !bytes.Equal(a, b) {
		t.Fatal("generation is not deterministic")
	}
	if len(a) != spec.Size {
		t.Fatalf("generated %d bytes, want %d", len(a), spec.Size)
	}
}

func TestGenerateExactSizes(t *testing.T) {
	for _, cls := range []Class{ClassXML, ClassWebLog, ClassSource, ClassBinary, ClassAudio, ClassMedia, ClassPDF, ClassMail} {
		for _, n := range []int{1, 100, 5000, 70000} {
			got := Generate(cls, n, 7)
			if len(got) != n {
				t.Errorf("%v size %d: generated %d", cls, n, len(got))
			}
		}
	}
	if len(Generate(ClassXML, 0, 1)) != 0 {
		t.Error("size 0 should generate empty")
	}
}

func TestScaledCorpusPreservesSmallFiles(t *testing.T) {
	scaled := ScaledCorpus(0.1)
	for i, s := range Table2() {
		if s.Size <= 100_000 {
			if scaled[i].Size != s.Size {
				t.Errorf("%s: small file resized %d -> %d", s.Name, s.Size, scaled[i].Size)
			}
		} else if scaled[i].Size >= s.Size {
			t.Errorf("%s: large file not scaled", s.Name)
		}
	}
}

// TestClassCompressionBands checks each class's gzip compression factor
// lands in the band Table 2 establishes for it — the property the
// experiments actually depend on.
func TestClassCompressionBands(t *testing.T) {
	gz := codec.MustNew(codec.Gzip, 9)
	cases := []struct {
		class    Class
		lo, hi   float64
		sampleKB int
	}{
		{ClassXML, 8, 40, 256},
		{ClassWebLog, 8, 40, 256},
		{ClassTarHTML, 4, 15, 256},
		{ClassSource, 3, 9, 256},
		{ClassPostscript, 3, 9, 256},
		{ClassPDF, 1.3, 3.4, 256},
		{ClassBinary, 1.6, 4.2, 256},
		{ClassClassFile, 1.6, 4.5, 64},
		{ClassAudio, 1.05, 3.5, 256},
		{ClassGraphic, 1.0, 1.6, 256},
		{ClassMedia, 0.9, 1.1, 256},
		{ClassRandom, 0.9, 1.05, 256},
		{ClassMail, 1.5, 4, 2},
		{ClassScript, 1.5, 8, 3},
		{ClassHTML, 2.2, 20, 16},
	}
	for _, c := range cases {
		data := Generate(c.class, c.sampleKB*1024, 99)
		comp, err := gz.Compress(data)
		if err != nil {
			t.Fatalf("%v: %v", c.class, err)
		}
		f := codec.Factor(len(data), len(comp))
		if f < c.lo || f > c.hi {
			t.Errorf("%v: gzip factor %.2f outside band [%.2f, %.2f]", c.class, f, c.lo, c.hi)
		}
	}
}

// TestCorpusOrderingRoughlyPreserved: the large-file corpus, compressed
// with gzip, should correlate with the paper's factor ordering (high-factor
// files stay high, incompressible stay near 1).
func TestCorpusOrderingRoughlyPreserved(t *testing.T) {
	gz := codec.MustNew(codec.Gzip, 9)
	specs := ScaledCorpus(0.03)
	var highFactor, lowFactor []float64
	for _, s := range specs {
		if !s.Large {
			continue
		}
		data := s.Generate()
		comp, err := gz.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		f := codec.Factor(len(data), len(comp))
		if s.PaperGzip >= 5 {
			highFactor = append(highFactor, f)
		}
		if s.PaperGzip <= 1.1 {
			lowFactor = append(lowFactor, f)
		}
	}
	for _, f := range highFactor {
		if f < 4 {
			t.Errorf("paper high-factor file reproduced at only %.2f", f)
		}
	}
	for _, f := range lowFactor {
		if f > 1.25 {
			t.Errorf("paper incompressible file reproduced at %.2f", f)
		}
	}
}

func TestMixedFileHasVaryingBlocks(t *testing.T) {
	gz := codec.MustNew(codec.Gzip, 9)
	data := MixedFile(768*1024, 5)
	if len(data) != 768*1024 {
		t.Fatalf("size %d", len(data))
	}
	// Per-128K block factors must straddle the 1.13 threshold.
	anyHigh, anyLow := false, false
	for off := 0; off+128*1000 <= len(data); off += 128 * 1000 {
		comp, err := gz.Compress(data[off : off+128*1000])
		if err != nil {
			t.Fatal(err)
		}
		f := codec.Factor(128*1000, len(comp))
		if f > 1.5 {
			anyHigh = true
		}
		if f < 1.1 {
			anyLow = true
		}
	}
	if !anyHigh || !anyLow {
		t.Error("mixed file lacks both compressible and incompressible blocks")
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("nes96.xml"); !ok {
		t.Error("nes96.xml missing")
	}
	if _, ok := ByName("no-such-file"); ok {
		t.Error("unexpected file found")
	}
}

func TestClassStrings(t *testing.T) {
	for c := ClassXML; c <= ClassScript; c++ {
		if c.String() == "" {
			t.Errorf("class %d has empty string", int(c))
		}
	}
}
