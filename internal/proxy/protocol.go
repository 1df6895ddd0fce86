// Package proxy implements the paper's experimental dataplane as a real
// networked system: a proxy server that stores files and serves them raw,
// precompressed, compressed on demand, or selectively compressed
// block-by-block; and a handheld-side client that downloads over TCP and
// decompresses each block in a pipeline concurrent with reception — the
// user-level interleaving of Section 4.1, with the receive path and the
// decompression path in separate goroutines.
//
// A connection carries many requests, one after another. The server
// serves a connection until its client closes it, it sits idle past the
// read timeout, the server drains, or it is evicted: at its connection cap
// the server ends an idle connection to take a new one. The client keeps
// one idle connection per server and redials once, within the same
// attempt, when the kept connection turns out closed before any of the
// answer arrives. A one-shot client that dials for every request is served
// as before.
//
// The energy numbers of the reproduction come from the simulation stack
// (internal/pipeline); this package exists so the protocol, the framing and
// the interleaving are exercised for real over sockets, as in the paper's
// testbed.
package proxy

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/checksum"
	"repro/internal/codec"
	"repro/internal/selective"
)

// Protocol constants. PXY2 hardened the PXY1 framing for a lossy link:
// the request and the GET response header carry a CRC-32 so a corrupted
// frame is distinguishable from an honest answer, the request carries a
// resume offset (and the response echoes the offset actually granted),
// and every block frame carries a CRC-32 of its payload so a fetch can be
// resumed from the last verified block. PXY3 adds a 64-bit request ID to
// the request frame: the client mints one per fetch (shared by every
// retry attempt), the server tags its logs and trace spans with it, so
// one grep or /tracez query follows a request across both sides of the
// wire.
const (
	protoMagic = "PXY3"

	opList = 0x01
	opGet  = 0x02
	// opGetEx is a GET whose tail carries the request's deadline class and
	// energy budget (the dynamic decider's per-request inputs). It is a
	// separate op rather than a widening of opGet so that clients with no
	// attributes to declare keep emitting byte-identical opGet frames.
	opGetEx = 0x03

	statusOK       = 0x00
	statusNotFound = 0x01
	statusBadReq   = 0x02
	// statusBusy is returned (and the connection closed) when the server
	// is at its concurrent-connection cap.
	statusBusy = 0x03

	blockFlagRaw        = 0x00
	blockFlagCompressed = 0x01
	blockFlagEnd        = 0xFF

	// maxNameLen bounds file names on the wire.
	maxNameLen = 4096
	// maxBlockWire bounds a single block payload (a compressed 0.128 MB
	// block can only be marginally larger than raw).
	maxBlockWire = 1 << 21
	// maxBlockRaw bounds a block's claimed decompressed size, mirroring
	// maxBlockWire: the claim sizes the decompressor's output buffer, so
	// it must be capped before any allocation happens.
	maxBlockRaw = 1 << 21

	// reqFixedLen is magic + op + name length.
	reqFixedLen = 4 + 1 + 2
	// reqTailLen is scheme + mode + offset + request ID + CRC, after the
	// name.
	reqTailLen = 1 + 1 + 8 + 8 + 4
	// reqTailExLen is the opGetEx tail: the opGet tail plus a deadline
	// class byte and a millijoule energy budget, before the CRC.
	reqTailExLen = reqTailLen + 1 + 4
	// GetHeaderLen is the wire size of a GET response header frame: status
	// + raw size + scheme + offset + CRC. It and BlockHeaderLen are
	// exported because the soak harness reconciles the client's WireBytes
	// ledger against the server's payload counters, which requires knowing
	// the per-frame overhead it read.
	GetHeaderLen = 1 + 8 + 1 + 8 + 4
	// BlockHeaderLen is the wire size of a block (or end) frame header:
	// flag + raw length + payload length + payload CRC.
	BlockHeaderLen = 1 + 4 + 4 + 4
)

// Mode is the transfer mode requested by the client.
type Mode byte

// Transfer modes.
const (
	// ModeRaw transfers the file uncompressed.
	ModeRaw Mode = iota + 1
	// ModePrecompressed serves blocks compressed ahead of time on the
	// proxy (Section 3: "all downloaded files are compressed a priori").
	ModePrecompressed
	// ModeOnDemand compresses blocks while the transfer is in flight
	// (Section 5).
	ModeOnDemand
	// ModeSelective applies the block-by-block adaptive scheme of
	// Section 4.3 (on demand).
	ModeSelective
)

func (m Mode) String() string {
	switch m {
	case ModeRaw:
		return "raw"
	case ModePrecompressed:
		return "precompressed"
	case ModeOnDemand:
		return "on-demand"
	case ModeSelective:
		return "selective"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrProtocol is returned for malformed frames.
var ErrProtocol = errors.New("proxy: protocol error")

// ErrNotFound is returned when the server does not have the file.
var ErrNotFound = errors.New("proxy: file not found")

// ErrBusy is returned when the server sheds the connection at its
// concurrent-connection cap; the request is safe to retry.
var ErrBusy = errors.New("proxy: server busy")

// request is the client->server GET message. Offset asks the server to
// resume the transfer at that raw-byte position; the server rounds it down
// to a block boundary and echoes the granted offset in the response.
// ReqID is the client-minted correlation ID: every retry attempt of one
// fetch carries the same ID, and the server propagates it into its logs
// and trace spans.
type request struct {
	Op     byte
	Name   string
	Scheme codec.Scheme
	Mode   Mode
	Offset uint64
	ReqID  uint64
	// Class and BudgetMJ ride only on opGetEx frames: the handheld's
	// deadline class (decider.ClassFromByte vocabulary) and its remaining
	// energy budget in millijoules (0 = undeclared). On opGet they are
	// always zero.
	Class    uint8
	BudgetMJ uint32
}

// tailLen is the per-op request tail size after the name.
func (r request) tailLen() int {
	if r.Op == opGetEx {
		return reqTailExLen
	}
	return reqTailLen
}

// appendRequest appends req's frame to dst. A client that keeps its
// connection passes the same scratch every time, so a request frame costs
// no allocation once the scratch has grown to fit.
func appendRequest(dst []byte, req request) ([]byte, error) {
	if len(req.Name) > maxNameLen {
		return dst, fmt.Errorf("%w: name too long", ErrProtocol)
	}
	buf := append(dst, protoMagic...)
	buf = append(buf, req.Op)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(req.Name)))
	buf = append(buf, req.Name...)
	buf = append(buf, byte(req.Scheme), byte(req.Mode))
	buf = binary.BigEndian.AppendUint64(buf, req.Offset)
	buf = binary.BigEndian.AppendUint64(buf, req.ReqID)
	if req.Op == opGetEx {
		buf = append(buf, req.Class)
		buf = binary.BigEndian.AppendUint32(buf, req.BudgetMJ)
	}
	// The CRC covers everything after the magic, so a bit-flipped request
	// is rejected server-side instead of fetching the wrong file.
	return binary.BigEndian.AppendUint32(buf, crcOf(buf[len(dst)+len(protoMagic):])), nil
}

// requestReader decodes request frames into scratch it keeps between
// them: a server connection that carries many requests allocates only
// each request's name.
type requestReader struct {
	hdr  [reqFixedLen]byte
	rest []byte
}

func (rr *requestReader) read(r io.Reader) (request, error) {
	hdr := rr.hdr[:]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return request{}, err
	}
	if string(hdr[:len(protoMagic)]) != protoMagic {
		return request{}, fmt.Errorf("%w: bad magic", ErrProtocol)
	}
	req := request{Op: hdr[len(protoMagic)]}
	nameLen := int(binary.BigEndian.Uint16(hdr[len(protoMagic)+1:]))
	if nameLen > maxNameLen {
		return request{}, fmt.Errorf("%w: name length %d", ErrProtocol, nameLen)
	}
	n := nameLen + req.tailLen()
	if cap(rr.rest) < n {
		rr.rest = make([]byte, n)
	}
	rest := rr.rest[:n]
	if _, err := io.ReadFull(r, rest); err != nil {
		return request{}, fmt.Errorf("%w: truncated request: %v", ErrProtocol, err)
	}
	body := rest[:len(rest)-4]
	wantCRC := binary.BigEndian.Uint32(rest[len(rest)-4:])
	sum := checksum.UpdateCRC32(checksum.CRC32(hdr[len(protoMagic):]), body)
	if sum != wantCRC {
		return request{}, fmt.Errorf("%w: request CRC mismatch", ErrProtocol)
	}
	req.Name = string(body[:nameLen])
	req.Scheme = codec.Scheme(body[nameLen])
	req.Mode = Mode(body[nameLen+1])
	req.Offset = binary.BigEndian.Uint64(body[nameLen+2:])
	req.ReqID = binary.BigEndian.Uint64(body[nameLen+10:])
	if req.Op == opGetEx {
		req.Class = body[nameLen+18]
		req.BudgetMJ = binary.BigEndian.Uint32(body[nameLen+19:])
	}
	return req, nil
}

// getHeader is the server->client GET response header. Offset is the
// resume position granted by the server (always a block boundary, never
// past the requested offset); the CRC lets the client tell a corrupted
// header from an honest status byte.
type getHeader struct {
	Status  byte
	RawSize uint64
	Scheme  codec.Scheme
	Offset  uint64
}

func writeGetHeader(w io.Writer, h getHeader) error {
	buf := frameBuf(w, GetHeaderLen)
	buf[0] = h.Status
	binary.BigEndian.PutUint64(buf[1:9], h.RawSize)
	buf[9] = byte(h.Scheme)
	binary.BigEndian.PutUint64(buf[10:18], h.Offset)
	binary.BigEndian.PutUint32(buf[18:22], crcOf(buf[:18]))
	_, err := w.Write(buf)
	return err
}

func readGetHeader(r io.Reader) (getHeader, error) {
	buf, err := nextFrame(r, GetHeaderLen)
	if err != nil {
		return getHeader{}, fmt.Errorf("%w: truncated header: %v", ErrProtocol, err)
	}
	if crcOf(buf[:18]) != binary.BigEndian.Uint32(buf[18:22]) {
		return getHeader{}, fmt.Errorf("%w: header CRC mismatch", ErrProtocol)
	}
	return getHeader{
		Status:  buf[0],
		RawSize: binary.BigEndian.Uint64(buf[1:9]),
		Scheme:  codec.Scheme(buf[9]),
		Offset:  binary.BigEndian.Uint64(buf[10:18]),
	}, nil
}

// WriteBlock frames one block: flag, raw length, payload length, payload
// CRC-32, payload. PXY3 responses and PXY-P artifact streams
// (internal/cluster) share this layout, so it has exactly one codec.
func WriteBlock(w io.Writer, b selective.Block) error {
	hdr := frameBuf(w, BlockHeaderLen)
	hdr[0] = blockFlagRaw
	if b.Compressed {
		hdr[0] = blockFlagCompressed
	}
	binary.BigEndian.PutUint32(hdr[1:5], uint32(b.RawLen))
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(b.Payload)))
	binary.BigEndian.PutUint32(hdr[9:13], crcOf(b.Payload))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(b.Payload) > 0 {
		if _, err := w.Write(b.Payload); err != nil {
			return err
		}
	}
	return nil
}

// WriteEnd emits the terminal frame with its 32-bit trailer: PXY3 carries
// the content CRC there, PXY-P the stream's block count. The trailer is
// itself covered by a CRC over the frame header: without that, a bit-flip
// in the content-CRC field would be indistinguishable from the file having
// changed between attempts, and the client would wrongly discard its
// verified resume prefix.
func WriteEnd(w io.Writer, trailer uint32) error {
	hdr := frameBuf(w, BlockHeaderLen)
	hdr[0] = blockFlagEnd
	binary.BigEndian.PutUint32(hdr[1:5], trailer)
	binary.BigEndian.PutUint32(hdr[9:13], crcOf(hdr[:9]))
	_, err := w.Write(hdr)
	return err
}

// ReadBlock returns the next block, or ok=false with the end frame's
// trailer when the end marker is reached. Both length fields are bounded
// before any allocation, and the payload must match its frame CRC — a
// block that ReadBlock accepts is verified, which is what makes resume
// offsets safe to trust.
//
// The payload buffer is drawn from the codec buffer pool; the caller owns
// it and should hand it back with codec.PutBuf once the block is consumed.
func ReadBlock(r io.Reader) (b selective.Block, trailer uint32, ok bool, err error) {
	hdr, err := nextFrame(r, BlockHeaderLen)
	if err != nil {
		return selective.Block{}, 0, false, fmt.Errorf("%w: truncated block: %v", ErrProtocol, err)
	}
	if hdr[0] == blockFlagEnd {
		if crcOf(hdr[:9]) != binary.BigEndian.Uint32(hdr[9:13]) {
			return selective.Block{}, 0, false, fmt.Errorf("%w: end frame CRC mismatch", ErrProtocol)
		}
		return selective.Block{}, binary.BigEndian.Uint32(hdr[1:5]), false, nil
	}
	if hdr[0] != blockFlagRaw && hdr[0] != blockFlagCompressed {
		return selective.Block{}, 0, false, fmt.Errorf("%w: flag %#x", ErrProtocol, hdr[0])
	}
	rawLen := binary.BigEndian.Uint32(hdr[1:5])
	payLen := binary.BigEndian.Uint32(hdr[5:9])
	if err := selective.CheckWireLens(rawLen, payLen, maxBlockRaw, maxBlockWire); err != nil {
		return selective.Block{}, 0, false, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	// A raw block's payload IS its raw bytes, so the two lengths must
	// agree. Enforcing that here keeps the per-block RawLen claims an
	// honest budget: downstream, the sum of accepted RawLens bounds the
	// bytes that can reach the output buffer.
	if hdr[0] == blockFlagRaw && payLen != rawLen {
		return selective.Block{}, 0, false, fmt.Errorf("%w: raw block claims %d raw bytes but carries %d", ErrProtocol, rawLen, payLen)
	}
	// hdr may be r's own buffer, which reading the payload reuses.
	compressed, wantCRC := hdr[0] == blockFlagCompressed, binary.BigEndian.Uint32(hdr[9:13])
	payload := codec.GetBuf(int(payLen))[:payLen]
	if _, err := io.ReadFull(r, payload); err != nil {
		codec.PutBuf(payload)
		return selective.Block{}, 0, false, fmt.Errorf("%w: truncated payload: %v", ErrProtocol, err)
	}
	if crcOf(payload) != wantCRC {
		codec.PutBuf(payload)
		return selective.Block{}, 0, false, fmt.Errorf("%w: block payload CRC mismatch", ErrProtocol)
	}
	return selective.Block{Compressed: compressed, RawLen: int(rawLen), Payload: payload}, 0, true, nil
}

// frameBuf returns n zeroed bytes to build a frame header in, for the
// caller to Write to w: w's own free buffer space when w is a bufio.Writer
// with room for it, so that a response's frames cost no allocation.
func frameBuf(w io.Writer, n int) []byte {
	if bw, ok := w.(*bufio.Writer); ok && bw.Available() >= n {
		buf := bw.AvailableBuffer()[:n]
		clear(buf)
		return buf
	}
	return make([]byte, n)
}

// nextFrame reads the next n bytes of r, frameBuf's mirror: from a
// bufio.Reader holding them they are the reader's own buffer, valid until
// its next read.
func nextFrame(r io.Reader, n int) ([]byte, error) {
	if br, ok := r.(*bufio.Reader); ok {
		if p, err := br.Peek(n); err == nil {
			_, err = br.Discard(n)
			return p, err
		}
	}
	p := make([]byte, n)
	_, err := io.ReadFull(r, p)
	return p, err
}

// crcOf is a helper around the repository's own CRC-32.
func crcOf(data []byte) uint32 { return checksum.CRC32(data) }
