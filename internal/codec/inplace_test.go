package codec

// What decoding a block where its bytes land relies on: a caller that
// decodes onto the tail of the output it has built so far must get that
// output back untouched when the block is bad, and must not pay for a copy
// of it when the block is good.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// damaged returns streams that should not decode as comp's size bytes:
// truncations, and single-bit flips at seeded positions. (A flip can land
// in a don't-care bit; the test holds whatever comes back to the contract.)
func damaged(comp []byte) map[string][]byte {
	out := map[string][]byte{
		"empty":      nil,
		"header":     comp[:min(3, len(comp))],
		"half":       comp[:len(comp)/2],
		"no-trailer": comp[:len(comp)-1],
	}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 64; i++ {
		bad := bytes.Clone(comp)
		bit := rng.Intn(8 * len(bad))
		bad[bit/8] ^= 1 << (bit % 8)
		out[fmt.Sprintf("flip-bit-%d", bit)] = bad
	}
	return out
}

// TestFailedDecompressIntoLeavesPrefix: a decode that fails — at the first
// byte or after writing most of a block into dst's spare capacity —
// returns nil, and dst's own bytes are as they were.
func TestFailedDecompressIntoLeavesPrefix(t *testing.T) {
	const size = 20 << 10
	prefix := workload.Generate(workload.ClassBinary, 3000, 19)
	for _, s := range []Scheme{Gzip, Compress, Bzip2, Zlib} {
		c := MustNew(s, 0)
		raw := workload.Generate(workload.ClassXML, size, 18)
		comp, err := c.Compress(raw)
		if err != nil {
			t.Fatal(err)
		}
		check := func(name string, stream []byte, limit int) {
			dst := append(make([]byte, 0, len(prefix)+size), prefix...) // room: a failure may have written past len
			out, err := DecompressInto(c, dst, stream, limit)
			if !bytes.Equal(dst, prefix) {
				t.Errorf("%v/%s: the prefix was modified (err %v)", s, name, err)
			}
			switch {
			case err != nil && out != nil:
				t.Errorf("%v/%s: failed (%v) but returned %d bytes", s, name, err, len(out))
			case err == nil && !bytes.Equal(out[:len(prefix)], prefix):
				t.Errorf("%v/%s: decoded, but not behind the prefix", s, name)
			}
		}
		for name, stream := range damaged(comp) {
			check(name, stream, size)
		}
		// What the client sees when a frame's RawLen is damaged: a sound
		// stream, a limit too small for it.
		check("limit-1", comp, size-1)
		check("limit-half", comp, size/2)
	}
}

// TestDecompressIntoLargePrefixNoRealloc: onto a prefix of 1 MiB or more
// with room for the block, the decoded bytes land in the caller's array —
// no decoder may answer a long dst by moving it.
func TestDecompressIntoLargePrefixNoRealloc(t *testing.T) {
	const size = 128 << 10
	for _, s := range []Scheme{Gzip, Compress, Bzip2, Zlib} {
		c := MustNew(s, 0)
		raw := workload.Generate(workload.ClassXML, size, 18)
		comp, err := c.Compress(raw)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 1<<20+5, 1<<20+5+size)
		out, err := DecompressInto(c, dst, comp, size)
		if err != nil || !bytes.Equal(out[len(dst):], raw) {
			t.Fatalf("%v: decode onto a 1 MiB prefix: %d bytes, err %v", s, len(out)-len(dst), err)
		}
		if &out[0] != &dst[0] || cap(out) != cap(dst) {
			t.Errorf("%v: decoding into a buffer with room reallocated it (cap %d -> %d)", s, cap(dst), cap(out))
		}
	}
}
