package codec

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestWorkspacesUnderConcurrency: the kernels' workspaces are shared
// through package-level pools, so goroutines compressing and decompressing
// blocks of different sizes and kinds at once must each get their own
// bytes back — and the race detector must see no workspace in two hands.
func TestWorkspacesUnderConcurrency(t *testing.T) {
	classes := []workload.Class{workload.ClassXML, workload.ClassBinary, workload.ClassSource, workload.ClassMedia}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				s := []Scheme{Gzip, Compress, Bzip2, Zlib}[(g+i)%4]
				c := MustNew(s, 0)
				raw := workload.Generate(classes[(g*7+i)%len(classes)], 1+(g*37+i*11)%97*1024, uint64(g*100+i))
				comp, err := c.Compress(raw)
				if err != nil {
					t.Errorf("%v: Compress: %v", s, err)
					return
				}
				back, err := DecompressInto(c, GetBuf(len(raw)), comp, len(raw))
				if err != nil || !bytes.Equal(back, raw) {
					t.Errorf("%v: round trip of %d bytes: err %v", s, len(raw), err)
					return
				}
				PutBuf(back)
			}
		}(g)
	}
	wg.Wait()
}
