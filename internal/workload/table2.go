package workload

import "hash/fnv"

// FileSpec describes one test file from Tables 2 and 3: its name, original
// size, content class, and the compression factors the paper measured, kept
// for paper-vs-reproduction reporting.
type FileSpec struct {
	Name        string
	Size        int
	Class       Class
	Description string
	Large       bool // the paper's >50 KB "relatively large" group

	// Paper's Table 2 compression factors.
	PaperGzip     float64
	PaperCompress float64
	PaperBzip2    float64
}

// Seed derives the deterministic generation seed from the file name.
func (s FileSpec) Seed() uint64 {
	h := fnv.New64a()
	h.Write([]byte(s.Name))
	return h.Sum64()
}

// Generate materialises the file's synthetic content.
func (s FileSpec) Generate() []byte {
	return Generate(s.Class, s.Size, s.Seed())
}

// ScaledTo returns a copy of the spec with the size scaled by factor
// (minimum 64 bytes) — used to keep simulation corpora tractable while
// preserving the size ordering of the paper's figures. Files at or below
// keepBelow bytes are kept at full size (the "small files" group must stay
// small in absolute terms because the thresholds are absolute).
func (s FileSpec) ScaledTo(factor float64, keepBelow int) FileSpec {
	if s.Size <= keepBelow {
		return s
	}
	n := int(float64(s.Size) * factor)
	if n < 64 {
		n = 64
	}
	out := s
	out.Size = n
	return out
}

// Table2 returns every file of the paper's Table 2, in its printed order
// (large files first, then small), with the published sizes and factors.
func Table2() []FileSpec {
	return []FileSpec{
		// Large files (sorted by decreasing gzip factor in the figures).
		{Name: "nes96.xml", Size: 2961063, Class: ClassXML, Description: "a xml webpage", Large: true, PaperGzip: 18.23, PaperCompress: 6.51, PaperBzip2: 23.59},
		{Name: "M3TC.xml", Size: 8391571, Class: ClassXML, Description: "a xml webpage", Large: true, PaperGzip: 14.64, PaperCompress: 9.91, PaperBzip2: 18.58},
		{Name: "M3TCsmall.xml", Size: 940000, Class: ClassXML, Description: "a xml webpage", Large: true, PaperGzip: 12.90, PaperCompress: 6.63, PaperBzip2: 11.52},
		{Name: "input.log", Size: 4900036, Class: ClassWebLog, Description: "a webpage log (from SPEC 2000)", Large: true, PaperGzip: 11.11, PaperCompress: 5.92, PaperBzip2: 18.37},
		{Name: "langspec-2.0.html.tar", Size: 1162816, Class: ClassTarHTML, Description: "a tar file of Java language specification in html format", Large: true, PaperGzip: 5.11, PaperCompress: 3.08, PaperBzip2: 6.13},
		{Name: "input.source", Size: 9553920, Class: ClassSource, Description: "a program source (from SPEC 2000)", Large: true, PaperGzip: 3.90, PaperCompress: 2.54, PaperBzip2: 4.88},
		{Name: "proxy.ps", Size: 2175331, Class: ClassPostscript, Description: "a postscript document", Large: true, PaperGzip: 3.80, PaperCompress: 3.00, PaperBzip2: 6.87},
		{Name: "j2d-book.ps", Size: 5234774, Class: ClassPostscript, Description: "a postscript document", Large: true, PaperGzip: 3.70, PaperCompress: 2.75, PaperBzip2: 4.70},
		{Name: "java.ps", Size: 1698978, Class: ClassPostscript, Description: "a postscript document", Large: true, PaperGzip: 3.55, PaperCompress: 2.61, PaperBzip2: 4.46},
		{Name: "localedef", Size: 330072, Class: ClassBinary, Description: "a program binary", Large: true, PaperGzip: 3.50, PaperCompress: 2.18, PaperBzip2: 3.72},
		{Name: "JavaCCParser.class", Size: 126241, Class: ClassClassFile, Description: "a Java class file", Large: true, PaperGzip: 3.00, PaperCompress: 2.00, PaperBzip2: 3.17},
		{Name: "langspec-2.0.pdf", Size: 4419906, Class: ClassPDF, Description: "Java specification in pdf format", Large: true, PaperGzip: 2.79, PaperCompress: 1.98, PaperBzip2: 3.00},
		{Name: "pegwit", Size: 360188, Class: ClassBinary, Description: "a program binary", Large: true, PaperGzip: 2.57, PaperCompress: 1.73, PaperBzip2: 2.90},
		{Name: "NTBACKUP.EXE", Size: 1162512, Class: ClassBinary, Description: "a program binary", Large: true, PaperGzip: 2.46, PaperCompress: 1.79, PaperBzip2: 2.50},
		{Name: "input.program", Size: 3450558, Class: ClassBinary, Description: "a program binary (from SPEC 2000)", Large: true, PaperGzip: 2.30, PaperCompress: 1.77, PaperBzip2: 2.41},
		{Name: "sttrep.wav", Size: 1158380, Class: ClassAudio, Description: "a data file in .wav format", Large: true, PaperGzip: 2.77, PaperCompress: 2.26, PaperBzip2: 3.25},
		{Name: "pp.wve", Size: 920316, Class: ClassAudio, Description: "a data file in .wve format", Large: true, PaperGzip: 1.11, PaperCompress: 0.95, PaperBzip2: 1.23},
		{Name: "input.graphic", Size: 6656364, Class: ClassGraphic, Description: "a TIFF image (from SPEC 2000)", Large: true, PaperGzip: 1.09, PaperCompress: 0.97, PaperBzip2: 1.38},
		{Name: "image01.jpg", Size: 1833027, Class: ClassMedia, Description: "a jpeg image", Large: true, PaperGzip: 1.04, PaperCompress: 0.90, PaperBzip2: 1.36},
		{Name: "loveonife.mp3", Size: 4328513, Class: ClassMedia, Description: "a mp3 music", Large: true, PaperGzip: 1.02, PaperCompress: 0.83, PaperBzip2: 1.02},
		{Name: "lorn.015.m2v", Size: 2816594, Class: ClassMedia, Description: "a mpeg-2 movie", Large: true, PaperGzip: 1.01, PaperCompress: 0.85, PaperBzip2: 1.02},
		{Name: "image01.gif", Size: 5075287, Class: ClassRandom, Description: "a GIF file", Large: true, PaperGzip: 1.00, PaperCompress: 0.82, PaperBzip2: 1.00},
		{Name: "input.random", Size: 4194309, Class: ClassRandom, Description: "random data (from SPEC 2000)", Large: true, PaperGzip: 1.00, PaperCompress: 0.81, PaperBzip2: 1.00},

		// Small files (sorted by increasing size in the figures).
		{Name: "mail0", Size: 1438, Class: ClassMail, Description: "a text mail", PaperGzip: 1.82, PaperCompress: 1.47, PaperBzip2: 1.67},
		{Name: "mail1", Size: 1611, Class: ClassMail, Description: "a text mail", PaperGzip: 1.91, PaperCompress: 1.48, PaperBzip2: 1.75},
		{Name: "PolyhedronElement.class", Size: 2211, Class: ClassClassFile, Description: "a java class file", PaperGzip: 1.79, PaperCompress: 1.42, PaperBzip2: 1.66},
		{Name: "nohup", Size: 3100, Class: ClassScript, Description: "a shell script", PaperGzip: 1.97, PaperCompress: 1.47, PaperBzip2: 1.81},
		{Name: "mail2", Size: 4285, Class: ClassMail, Description: "a text mail", PaperGzip: 2.16, PaperCompress: 1.66, PaperBzip2: 2.00},
		{Name: "yahooindex.html", Size: 16709, Class: ClassHTML, Description: "a html webpage", PaperGzip: 3.11, PaperCompress: 2.22, PaperBzip2: 3.11},
		{Name: "Stele.class", Size: 21890, Class: ClassClassFile, Description: "a Java class file", PaperGzip: 2.23, PaperCompress: 1.66, PaperBzip2: 2.15},
		{Name: "tail", Size: 26240, Class: ClassBinary, Description: "a program binary", PaperGzip: 2.03, PaperCompress: 1.59, PaperBzip2: 2.11},
		{Name: "umcdig.eps", Size: 31290, Class: ClassPostscript, Description: "an encapsulated postscript file", PaperGzip: 3.22, PaperCompress: 1.95, PaperBzip2: 3.17},
		{Name: "intro.pdf", Size: 44000, Class: ClassPDF, Description: "a pdf file", PaperGzip: 1.77, PaperCompress: 1.23, PaperBzip2: 1.80},
		{Name: "fscrib", Size: 57312, Class: ClassBinary, Description: "a program binary", PaperGzip: 2.05, PaperCompress: 1.55, PaperBzip2: 2.14},
		{Name: "intro.ps", Size: 66072, Class: ClassPostscript, Description: "a postscript document", PaperGzip: 2.37, PaperCompress: 1.87, PaperBzip2: 2.54},
		{Name: "JavaFiles.class", Size: 70000, Class: ClassClassFile, Description: "a Java class file", PaperGzip: 2.93, PaperCompress: 1.82, PaperBzip2: 2.97},
		{Name: "pet.ps", Size: 79012, Class: ClassPostscript, Description: "a postscript file", PaperGzip: 2.58, PaperCompress: 1.90, PaperBzip2: 2.83},
	}
}

// ScaledCorpus returns the full corpus with large files scaled by factor;
// small files (the absolute-threshold group) keep their true sizes.
func ScaledCorpus(factor float64) []FileSpec {
	specs := Table2()
	out := make([]FileSpec, len(specs))
	for i, s := range specs {
		out[i] = s.ScaledTo(factor, 100_000)
	}
	return out
}

// ByName returns the spec with the given name.
func ByName(name string) (FileSpec, bool) {
	for _, s := range Table2() {
		if s.Name == name {
			return s, true
		}
	}
	return FileSpec{}, false
}

// MixedFile generates a file whose blocks alternate between highly
// compressible text and incompressible media — the tar/PowerPoint/PDF
// mixture of Section 4.3 whose per-block factors vary enough to exercise
// the block-by-block adaptive scheme.
func MixedFile(size int, seed uint64) []byte {
	if size <= 0 {
		return []byte{}
	}
	out := make([]byte, 0, size)
	text := true
	for len(out) < size {
		// Chunks align with the selective scheme's 0.128 MB compression
		// buffer (selective.BlockSize) so each block is purely one class.
		chunkLen := 128 * 1000
		if remaining := size - len(out); chunkLen > remaining {
			chunkLen = remaining
		}
		cls := ClassHTML
		if !text {
			cls = ClassRandom
		}
		out = append(out, Generate(cls, chunkLen, seed+uint64(len(out)))...)
		text = !text
	}
	return out[:size]
}
