package workload

// BenchFile is one file the benchmark's large workloads serve.
type BenchFile struct {
	Name string
	Data []byte
}

// BenchFiles rebuilds the six files the benchmark's large workloads serve
// (bench/loopback.go: largeFiles at corpusSeed 2003), so the codecs'
// byte-identity tests and kernel benchmarks run on the blocks the
// end-to-end numbers come from. measure is the gzip -6 factor media.r115
// is calibrated against, passed in as GenerateRatio takes it.
func BenchFiles(measure Measurer) []BenchFile {
	class := func(c Class) func(int, uint64) []byte {
		return func(size int, seed uint64) []byte { return Generate(c, size, seed) }
	}
	files := []struct {
		name string
		size int
		gen  func(int, uint64) []byte
	}{
		{"prog.c", 256 << 10, class(ClassSource)},
		{"spec.html", 512 << 10, class(ClassHTML)},
		{"tool.bin", 384 << 10, class(ClassBinary)},
		{"paper.ps", 768 << 10, class(ClassPostscript)},
		{"deck.mixed", 1 << 20, MixedFile},
		{"media.r115", 512 << 10, func(size int, seed uint64) []byte {
			return GenerateRatio(size, 1.15, seed, measure)
		}},
	}
	out := make([]BenchFile, len(files))
	for i, f := range files {
		out[i] = BenchFile{f.name, f.gen(f.size, Splitmix(2003, uint64(i)))}
	}
	return out
}

// Splitmix spreads (seed, salt) into an independent 64-bit stream seed
// (the SplitMix64 finalizer), so nearby salts give uncorrelated streams.
func Splitmix(seed, salt uint64) uint64 {
	z := seed ^ (salt+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
