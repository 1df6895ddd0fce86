package main

import (
	"bytes"
	"compress/flate"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"
)

// The reference kernel is the benchmark's yardstick for how fast this
// machine is running right now. It is stdlib-only and imports nothing from
// the program under test, so a change to the program cannot move it; it
// runs before the first pass and after every pass, and each pass's timings
// are scaled by how far the kernel's time sat from refNominalMs while that
// pass ran. On a shared sandbox whose wall clock drifts by a quarter over
// a few seconds this is what makes two runs of one commit agree.
const (
	// refNominalMs only fixes the unit ("nms": milliseconds on a machine
	// that runs one kernel iteration in exactly this long). Changing it
	// rescales every recorded trajectory; never change it.
	refNominalMs = 3.6
	// refIters iterations per worker make one reading (~70 ms).
	refIters = 20
	// refWorkers matches the load generator's client count, so the kernel
	// sees the same core contention the pass did.
	refWorkers = 2
	refTextLen = 1 << 20
)

type refWorker struct {
	zr  io.ReadCloser
	src bytes.Reader
	out []byte
}

type refKernel struct {
	comp    []byte
	want    uint32
	workers [refWorkers]refWorker
}

// refText is a fixed pseudo-English megabyte: an LCG picks words from a
// small vocabulary, which gives inflate a realistic literal/match mix.
func refText() []byte {
	vocab := []string{"energy", "radio", "idle", "handheld", "proxy", "block", "compress",
		"joule", "wireless", "download", "buffer", "the", "of", "and", "a", "to", "in", "is",
		"receive", "decompress", "interleave", "threshold", "factor", "byte", "\n"}
	out := make([]byte, 0, refTextLen+16)
	x := uint32(12345)
	for len(out) < refTextLen {
		x = x*1664525 + 1013904223
		out = append(out, vocab[(x>>16)%uint32(len(vocab))]...)
		out = append(out, ' ')
		if x>>28 == 0 { // occasional digits break up the word statistics
			out = append(out, byte('0'+(x>>8)%10), byte('0'+(x>>12)%10))
		}
	}
	return out[:refTextLen]
}

func newRefKernel() (*refKernel, error) {
	text := refText()
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, 6)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(text); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	r := &refKernel{comp: buf.Bytes(), want: crc32.ChecksumIEEE(text)}
	for i := range r.workers {
		w := &r.workers[i]
		w.src.Reset(r.comp)
		w.zr = flate.NewReader(&w.src)
		w.out = make([]byte, refTextLen)
	}
	// One unmeasured reading warms the inflater's tables and the caches.
	if _, err := r.read(); err != nil {
		return nil, err
	}
	return r, nil
}

// refReading is what one iteration of the kernel cost, averaged over the
// workers: on the wall clock and in process CPU time. The two part ways
// when the hypervisor takes the cores away for a while: wall time stretches,
// CPU time does not, and a pass's CPU time must be scaled by the second.
type refReading struct{ wallMs, cpuMs float64 }

// read runs refIters iterations on every worker at once.
func (r *refKernel) read() (refReading, error) {
	cpuBefore := cpuTime()
	var wg sync.WaitGroup
	var ms [refWorkers]float64
	var errs [refWorkers]error
	for i := range r.workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &r.workers[i]
			start := time.Now()
			for it := 0; it < refIters; it++ {
				w.src.Reset(r.comp)
				if err := w.zr.(flate.Resetter).Reset(&w.src, nil); err != nil {
					errs[i] = err
					return
				}
				if _, err := io.ReadFull(w.zr, w.out); err != nil {
					errs[i] = err
					return
				}
				if crc32.ChecksumIEEE(w.out) != r.want {
					errs[i] = fmt.Errorf("reference kernel: inflate produced wrong bytes")
					return
				}
			}
			ms[i] = float64(time.Since(start)) / float64(time.Millisecond) / refIters
		}(i)
	}
	wg.Wait()
	cpu := cpuTime() - cpuBefore
	var sum float64
	for i := range ms {
		if errs[i] != nil {
			return refReading{}, errs[i]
		}
		sum += ms[i]
	}
	return refReading{
		wallMs: sum / refWorkers,
		cpuMs:  float64(cpu) / float64(time.Millisecond) / (refIters * refWorkers),
	}, nil
}

// speedFactor converts a host duration measured between two reference
// readings (both wall, or both CPU) into nominal-machine time: multiply
// durations by it, divide rates by it.
func speedFactor(refBeforeMs, refAfterMs float64) float64 {
	return refNominalMs / ((refBeforeMs + refAfterMs) / 2)
}
