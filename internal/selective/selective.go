// Package selective implements the paper's block-by-block adaptive
// compression scheme (Section 4.3, Figure 10): data is processed in
// compression-buffer-sized blocks; a block is stored raw if it is below the
// threshold size or if compressing it fails the Equation 6 energy test, and
// compressed otherwise. Files below the file threshold (3900 bytes) are
// never compressed. With this scheme "the compression tool no longer incurs
// higher energy cost than no compression for any file".
package selective

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/codec"
	"repro/internal/energy"
)

// BlockSize is the compression buffer of the paper's modified zlib
// (0.128 MB).
const BlockSize = 128 * 1000

// Container framing.
const (
	magic0, magic1, magic2, magic3 = 'S', 'E', 'L', '1'

	flagRaw        = 0x00
	flagCompressed = 0x01
	flagEnd        = 0xFF

	headerLen      = 5 // magic + scheme byte
	blockHeaderLen = 9 // flag + rawLen + payloadLen
)

// ErrCorrupt is returned for malformed containers.
var ErrCorrupt = errors.New("selective: corrupt container")

// Decider is the compression decision test. ShouldCompress is consulted
// with a block's raw and compressed sizes; MinSizeBytes is the threshold
// below which blocks (and whole files) are sent raw without even trying.
type Decider interface {
	ShouldCompress(rawBytes, compBytes int) bool
	MinSizeBytes() int
}

// PaperDecider applies the paper's literal Equation 6 constants.
type PaperDecider struct{}

var _ Decider = PaperDecider{}

// ShouldCompress applies the published Equation 6.
func (PaperDecider) ShouldCompress(rawBytes, compBytes int) bool {
	return energy.PaperShouldCompress(rawBytes, compBytes)
}

// MinSizeBytes returns the paper's 3900-byte threshold.
func (PaperDecider) MinSizeBytes() int { return energy.PaperFileThresholdBytes }

// AlwaysCompress compresses every block (the non-adaptive baseline).
type AlwaysCompress struct{}

var _ Decider = AlwaysCompress{}

// ShouldCompress always returns true.
func (AlwaysCompress) ShouldCompress(int, int) bool { return true }

// MinSizeBytes returns zero.
func (AlwaysCompress) MinSizeBytes() int { return 0 }

// Block is one framed block of an encoded stream.
type Block struct {
	Compressed bool
	// Probed marks a block sent raw on the probe's bound, no codec run.
	Probed  bool
	RawLen  int
	Payload []byte
}

// WireLen is the block's on-the-wire size including framing.
func (b Block) WireLen() int { return blockHeaderLen + len(b.Payload) }

// Encoded is the result of selectively compressing a buffer.
type Encoded struct {
	Scheme codec.Scheme
	Blocks []Block
}

// Stats summarises an encoded stream.
type Stats struct {
	RawBytes         int
	WireBytes        int
	BlocksTotal      int
	BlocksCompressed int
	Factor           float64
}

// Stats computes summary statistics.
func (e *Encoded) Stats() Stats {
	s := Stats{BlocksTotal: len(e.Blocks)}
	for _, b := range e.Blocks {
		s.RawBytes += b.RawLen
		s.WireBytes += b.WireLen()
		if b.Compressed {
			s.BlocksCompressed++
		}
	}
	s.WireBytes += headerLen + 1 // container header + end marker
	s.Factor = codec.Factor(s.RawBytes, s.WireBytes)
	return s
}

// Bytes serialises the container.
func (e *Encoded) Bytes() []byte {
	st := e.Stats()
	out := make([]byte, 0, st.WireBytes)
	out = append(out, magic0, magic1, magic2, magic3, byte(e.Scheme))
	var hdr [blockHeaderLen]byte
	for _, b := range e.Blocks {
		if b.Compressed {
			hdr[0] = flagCompressed
		} else {
			hdr[0] = flagRaw
		}
		binary.BigEndian.PutUint32(hdr[1:5], uint32(b.RawLen))
		binary.BigEndian.PutUint32(hdr[5:9], uint32(len(b.Payload)))
		out = append(out, hdr[:]...)
		out = append(out, b.Payload...)
	}
	return append(out, flagEnd)
}

// Encode selectively compresses data with the codec per Figure 10 using
// the paper's 0.128 MB blocks, collecting what the block loop emits. Note
// "send the raw data" in the figure means writing the raw block into the
// (pre)compressed stream.
func Encode(data []byte, c codec.Codec, d Decider) (*Encoded, error) {
	e := &Encoded{Scheme: c.Scheme()}
	compress := func(_ int, raw []byte) ([]byte, error) { return c.Compress(raw) }
	err := EncodeBlocksParallel(data, compress, d, nil, func(b Block) {
		if e.Blocks == nil {
			e.Blocks = make([]Block, 0, NumBlocks(len(data)))
		}
		e.Blocks = append(e.Blocks, b)
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// NumBlocks is how many BlockSize blocks an n-byte buffer chunks into. The
// chunking is fixed by the raw length alone, so a server can place a resume
// boundary, or size an artifact, before any block has been compressed.
func NumBlocks(n int) int {
	return (n + BlockSize - 1) / BlockSize
}

// EncodeBlocksParallel is the block loop every entry point runs over
// BlockSize blocks. Each block's compress-and-decide step may run on a
// worker (spawn returns true after arranging to run the task) or inline
// (spawn is nil, or returns false — the caller's backpressure signal);
// compress must be safe for concurrent use when spawn is non-nil (every
// codec in this repository is).
// compress is handed block i's raw bytes, only for a block the decider has
// not already sent raw, and returns what the codec makes of them; the index
// lets a caller hand back output it already holds for that block.
//
// emit receives each block exactly once, in stream order, the moment it
// and every block before it are done — from whichever goroutine finished
// the block that was being waited for, one call at a time. Blocks are
// independent, so what is emitted is byte-identical for every spawn policy
// and worker count. If a block fails, the blocks before it are still
// emitted, nothing after it is, and its error is returned once all tasks
// have stopped.
func EncodeBlocksParallel(data []byte, compress func(i int, raw []byte) ([]byte, error), d Decider, spawn func(task func()) bool, emit func(Block)) error {
	minSize := d.MinSizeBytes()
	// Whole-file rule: below the threshold size the file is not to be
	// compressed before transferring.
	wholeFileRaw := len(data) < minSize

	type slot struct {
		blk  Block
		err  error
		done bool
	}
	var (
		wg sync.WaitGroup
		// mu guards slots, next and emitting. It is released around emit,
		// and emitting keeps a second finisher from emitting out of turn
		// meanwhile: it leaves its block in its slot for the first to find.
		mu       sync.Mutex
		slots    = make([]slot, NumBlocks(len(data)))
		next     int
		emitting bool
	)
	run := func(bi int) {
		defer wg.Done()
		off := bi * BlockSize
		end := off + BlockSize
		if end > len(data) {
			end = len(data)
		}
		blk, err := encodeBlock(data[off:end], bi, off, compress, d, wholeFileRaw, minSize)
		mu.Lock()
		defer mu.Unlock()
		slots[bi] = slot{blk, err, true}
		if emitting {
			return
		}
		emitting = true
		for next < len(slots) && slots[next].done && slots[next].err == nil {
			blk := slots[next].blk
			next++
			mu.Unlock()
			emit(blk)
			mu.Lock()
		}
		emitting = false
	}
	wg.Add(len(slots))
	for bi := range slots {
		if spawn == nil || !spawn(func() { run(bi) }) {
			run(bi)
		}
	}
	wg.Wait()
	if next < len(slots) {
		return slots[next].err
	}
	return nil
}

// encodeBlock applies Figure 10's per-block decision to one raw block.
func encodeBlock(raw []byte, bi, off int, compress func(int, []byte) ([]byte, error), d Decider, wholeFileRaw bool, minSize int) (Block, error) {
	blk := Block{RawLen: len(raw), Payload: raw}
	if wholeFileRaw || len(raw) < minSize {
		return blk, nil
	}
	// Every decider is monotone in compBytes, so one refusing the probe's
	// best case refuses what any codec makes (AlwaysCompress refuses none).
	// A decider that counts decisions answers via MayCompress: refusals only.
	if _, always := d.(AlwaysCompress); !always {
		may := d.ShouldCompress
		if p, ok := d.(interface{ MayCompress(int, int) bool }); ok {
			may = p.MayCompress
		}
		if blk.Probed = !may(len(raw), probe(raw)); blk.Probed {
			return blk, nil
		}
	}
	comp, err := compress(bi, raw)
	if err != nil {
		return Block{}, fmt.Errorf("selective: compress block at %d: %w", off, err)
	}
	if d.ShouldCompress(len(raw), len(comp)) {
		blk.Compressed = true
		blk.Payload = comp
	}
	return blk, nil
}

// Decode parses and decompresses a container produced by Encode. maxSize,
// if positive, bounds the decoded size.
func Decode(stream []byte, maxSize int) ([]byte, error) {
	blocks, scheme, err := Parse(stream)
	if err != nil {
		return nil, err
	}
	c, err := codec.New(scheme, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// Each block is decoded straight onto out's tail, which grows with the
	// blocks that decode, never from the sum of their untrusted RawLens.
	out := []byte{}
	for i, b := range blocks {
		if maxSize > 0 && len(out)+b.RawLen > maxSize {
			return nil, fmt.Errorf("%w: output exceeds limit %d", ErrCorrupt, maxSize)
		}
		if !b.Compressed {
			out = append(out, b.Payload...)
			continue
		}
		raw, err := codec.DecompressInto(c, out, b.Payload, b.RawLen)
		if err != nil {
			return nil, fmt.Errorf("%w: block %d: %v", ErrCorrupt, i, err)
		}
		if n := len(raw) - len(out); n != b.RawLen {
			return nil, fmt.Errorf("%w: block %d length %d, header says %d", ErrCorrupt, i, n, b.RawLen)
		}
		out = raw
	}
	return out, nil
}

// Wire-length validation helpers, shared by this container format and the
// proxy's PXY2 framing (internal/proxy). Length fields that arrive off the
// wire are attacker-controlled: they must be bounded BEFORE they size an
// allocation, a slice, or a decompression, and compared as unsigned values
// so 32-bit platforms cannot be tricked through an int overflow.

// MaxPlausibleRawLen is the largest raw block length any container or wire
// frame of this repository may claim: 16 of the paper's 0.128 MB
// compression buffers, ample headroom over the BlockSize every encoder
// here writes while keeping what a claimed length can size near 2 MB.
const MaxPlausibleRawLen = 16 * BlockSize

// CheckWireLens validates a frame's untrusted 32-bit length fields against
// explicit caps. rawLen is the claimed decompressed size (it drives the
// decompressor's output allocation), payLen the claimed payload size (it
// drives the read/slice). The comparison stays in uint32 so no conversion
// can wrap on any platform.
func CheckWireLens(rawLen, payLen, maxRaw, maxPay uint32) error {
	if rawLen > maxRaw {
		return fmt.Errorf("claimed raw length %d exceeds cap %d", rawLen, maxRaw)
	}
	if payLen > maxPay {
		return fmt.Errorf("claimed payload length %d exceeds cap %d", payLen, maxPay)
	}
	return nil
}

// FitsInt reports whether an untrusted unsigned 64-bit wire value converts
// to int without overflow on this platform (true for all values on 64-bit,
// values below 2^31 on 32-bit).
func FitsInt(v uint64) bool { return v <= uint64(^uint(0)>>1) }

// Parse splits a container into blocks without decompressing.
func Parse(stream []byte) ([]Block, codec.Scheme, error) {
	if len(stream) < headerLen+1 {
		return nil, 0, fmt.Errorf("%w: too short", ErrCorrupt)
	}
	if stream[0] != magic0 || stream[1] != magic1 || stream[2] != magic2 || stream[3] != magic3 {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	scheme := codec.Scheme(stream[4])
	pos := headerLen
	var blocks []Block
	for {
		if pos >= len(stream) {
			return nil, 0, fmt.Errorf("%w: missing end marker", ErrCorrupt)
		}
		flag := stream[pos]
		if flag == flagEnd {
			return blocks, scheme, nil
		}
		if flag != flagRaw && flag != flagCompressed {
			return nil, 0, fmt.Errorf("%w: flag %#x at %d", ErrCorrupt, flag, pos)
		}
		if pos+blockHeaderLen > len(stream) {
			return nil, 0, fmt.Errorf("%w: truncated block header", ErrCorrupt)
		}
		rawLen := binary.BigEndian.Uint32(stream[pos+1 : pos+5])
		payLen := binary.BigEndian.Uint32(stream[pos+5 : pos+9])
		pos += blockHeaderLen
		// Bound both claimed lengths in uint32 space before the payload is
		// sliced: a 32-bit build must never see these fields as ints while
		// they can still be ≥ 2^31.
		if err := CheckWireLens(rawLen, payLen, MaxPlausibleRawLen, 2*MaxPlausibleRawLen); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if uint64(payLen) > uint64(len(stream)-pos) {
			return nil, 0, fmt.Errorf("%w: truncated payload", ErrCorrupt)
		}
		b := Block{Compressed: flag == flagCompressed, RawLen: int(rawLen), Payload: stream[pos : pos+int(payLen)]}
		if !b.Compressed && payLen != rawLen {
			return nil, 0, fmt.Errorf("%w: raw block length mismatch", ErrCorrupt)
		}
		blocks = append(blocks, b)
		pos += int(payLen)
	}
}
