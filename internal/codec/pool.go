package codec

// Size-classed buffer pooling for the dataplane. A fetch reads one block
// payload per frame and would otherwise allocate each; these pools recycle
// them so a steady-state serve/fetch loop runs with O(1) buffers per block.

import (
	"math/bits"
	"slices"
	"sync"
)

// Pool classes are powers of two from 4 KiB to 2 MiB — the top class
// matches the proxy's maximum block wire size.
const (
	minPoolClass = 12 // 4 KiB
	maxPoolClass = 21 // 2 MiB
)

var bufPools [maxPoolClass - minPoolClass + 1]sync.Pool

// holders recycles the *[]byte each pooled buffer is kept in: GetBuf
// empties the one its buffer came in, PutBuf fills one for the buffer it
// keeps, so a warm round trip boxes no slice header.
var holders sync.Pool

// GetBuf returns a zero-length buffer with capacity at least n, recycled
// when possible. Requests beyond the top size class fall through to a
// plain allocation.
func GetBuf(n int) []byte {
	if n > 1<<maxPoolClass {
		return make([]byte, 0, n)
	}
	c := minPoolClass
	if n > 1<<minPoolClass {
		c = bits.Len(uint(n - 1)) // ceil(log2 n)
	}
	if v := bufPools[c-minPoolClass].Get(); v != nil {
		h := v.(*[]byte)
		b := (*h)[:0]
		*h = nil
		holders.Put(h)
		return b
	}
	return make([]byte, 0, 1<<c)
}

// PutBuf recycles a buffer obtained from GetBuf (or elsewhere). Buffers
// smaller than the bottom class or that alias retained data must not be
// put back; the caller owns that invariant.
func PutBuf(b []byte) {
	c := cap(b)
	if c < 1<<minPoolClass {
		return
	}
	k := bits.Len(uint(c)) - 1 // floor(log2 cap): every pooled buffer satisfies its class
	if k > maxPoolClass {
		k = maxPoolClass
	}
	h, _ := holders.Get().(*[]byte)
	if h == nil {
		h = new([]byte)
	}
	*h = b[:0]
	bufPools[k-minPoolClass].Put(h)
}

// DecompressInto decompresses data with c onto the end of dst. maxSize is
// the size the caller expects (a block's RawLen, already bounded): room for
// it is reserved first, amortised, as the decoders grow a buffer to the
// exact size and would re-copy a long dst once per block.
func DecompressInto(c Codec, dst, data []byte, maxSize int) ([]byte, error) {
	return c.DecompressAppend(slices.Grow(dst, max(maxSize, 0)), data, maxSize)
}
