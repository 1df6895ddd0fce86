package lzw

import "repro/internal/bitio"

// sliceWriter collects a crafted stream's bytes.
type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// newTestBitWriter exposes the production bit packing for crafted-stream
// tests.
type testBitWriter struct{ w *bitio.LSBWriter }

func newTestBitWriter(out *sliceWriter) *testBitWriter {
	return &testBitWriter{w: bitio.NewLSBWriter(out)}
}

func (t *testBitWriter) write(v uint64, n uint) { t.w.WriteBits(v, n) }
func (t *testBitWriter) flush()                 { _ = t.w.Flush() }
