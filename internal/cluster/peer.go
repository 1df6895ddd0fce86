package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/checksum"
	"repro/internal/codec"
	"repro/internal/proxy"
	"repro/internal/selective"
)

// PXY-P is the inter-proxy peer protocol: a CRC on the request frame, a
// CRC on the response status, and artifacts carried as PXY3's own block
// frames (proxy.WriteBlock / ReadBlock — per-block payload CRC, every
// wire-derived length bounded before allocation).
//
//	request:  "PXYP" | op u8 | keyLen-prefixed fields | crc32(after magic)
//	          key = nameLen u16 | name | gen u64 | scheme u8 | fpLen u16 | fp
//	response: status u8 | crc32(status)
//	blocks:   (fetch-ok responses and put requests)
//	          flag u8 | rawLen u32 | payLen u32 | crc32(payload) | payload
//	          ... terminated by flag 0xFF | count u32 | 0 u32 | crc32(hdr[:9])
//
// Ops: fetch asks the key's owner for the finished artifact; put pushes a
// replica of a hot artifact to a successor; inval raises a file's
// generation floor ring-wide after a registration bump.
const (
	peerMagic = "PXYP"

	peerOpFetch = 0x01
	peerOpPut   = 0x02
	peerOpInval = 0x03

	peerStatusOK       = 0x00
	peerStatusNotOwner = 0x01
	peerStatusStale    = 0x02
	peerStatusNotFound = 0x03
	peerStatusError    = 0x04

	maxPeerName   = 4096
	maxPeerFP     = 256
	maxPeerBlocks = 4096

	peerReqFixedLen = 4 + 1
)

// ErrPeerProtocol is returned for malformed PXY-P frames.
var ErrPeerProtocol = errors.New("cluster: peer protocol error")

// errNotOwner surfaces a peerStatusNotOwner response: the dialed node no
// longer (or never did) own the key — the caller degrades to local
// compression.
var errNotOwner = errors.New("cluster: peer is not the key's owner")

// peerRequest is one decoded PXY-P request frame.
type peerRequest struct {
	Op  byte
	Key proxy.ArtifactKey
}

func writePeerRequest(w io.Writer, req peerRequest) error {
	name, fp := []byte(req.Key.Name), []byte(req.Key.FP)
	if len(name) > maxPeerName || len(fp) > maxPeerFP {
		return fmt.Errorf("%w: oversized key", ErrPeerProtocol)
	}
	buf := make([]byte, 0, peerReqFixedLen+2+len(name)+8+1+2+len(fp)+4)
	buf = append(buf, peerMagic...)
	buf = append(buf, req.Op)
	var u16 [2]byte
	var u64 [8]byte
	binary.BigEndian.PutUint16(u16[:], uint16(len(name)))
	buf = append(buf, u16[:]...)
	buf = append(buf, name...)
	binary.BigEndian.PutUint64(u64[:], req.Key.Gen)
	buf = append(buf, u64[:]...)
	buf = append(buf, byte(req.Key.Scheme))
	binary.BigEndian.PutUint16(u16[:], uint16(len(fp)))
	buf = append(buf, u16[:]...)
	buf = append(buf, fp...)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], checksum.CRC32(buf[len(peerMagic):]))
	buf = append(buf, crc[:]...)
	_, err := w.Write(buf)
	return err
}

func readPeerRequest(r io.Reader) (peerRequest, error) {
	hdr := make([]byte, peerReqFixedLen+2)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return peerRequest{}, err
	}
	if string(hdr[:len(peerMagic)]) != peerMagic {
		return peerRequest{}, fmt.Errorf("%w: bad magic", ErrPeerProtocol)
	}
	req := peerRequest{Op: hdr[len(peerMagic)]}
	nameLen := int(binary.BigEndian.Uint16(hdr[peerReqFixedLen:]))
	if nameLen > maxPeerName {
		return peerRequest{}, fmt.Errorf("%w: name length %d", ErrPeerProtocol, nameLen)
	}
	mid := make([]byte, nameLen+8+1+2)
	if _, err := io.ReadFull(r, mid); err != nil {
		return peerRequest{}, fmt.Errorf("%w: truncated key: %v", ErrPeerProtocol, err)
	}
	req.Key.Name = string(mid[:nameLen])
	req.Key.Gen = binary.BigEndian.Uint64(mid[nameLen:])
	req.Key.Scheme = codec.Scheme(mid[nameLen+8])
	fpLen := int(binary.BigEndian.Uint16(mid[nameLen+9:]))
	if fpLen > maxPeerFP {
		return peerRequest{}, fmt.Errorf("%w: fp length %d", ErrPeerProtocol, fpLen)
	}
	tail := make([]byte, fpLen+4)
	if _, err := io.ReadFull(r, tail); err != nil {
		return peerRequest{}, fmt.Errorf("%w: truncated key tail: %v", ErrPeerProtocol, err)
	}
	req.Key.FP = string(tail[:fpLen])
	sum := checksum.CRC32(hdr[len(peerMagic):])
	sum = checksum.UpdateCRC32(sum, mid)
	sum = checksum.UpdateCRC32(sum, tail[:fpLen])
	if sum != binary.BigEndian.Uint32(tail[fpLen:]) {
		return peerRequest{}, fmt.Errorf("%w: request CRC mismatch", ErrPeerProtocol)
	}
	return req, nil
}

func writePeerStatus(w io.Writer, status byte) error {
	var buf [5]byte
	buf[0] = status
	binary.BigEndian.PutUint32(buf[1:], checksum.CRC32(buf[:1]))
	_, err := w.Write(buf[:])
	return err
}

func readPeerStatus(r io.Reader) (byte, error) {
	var buf [5]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("%w: truncated status: %v", ErrPeerProtocol, err)
	}
	if checksum.CRC32(buf[:1]) != binary.BigEndian.Uint32(buf[1:]) {
		return 0, fmt.Errorf("%w: status CRC mismatch", ErrPeerProtocol)
	}
	return buf[0], nil
}

// writeArtifact streams an artifact as PXY3 block frames, terminated by an
// end frame whose trailer carries the block count.
func writeArtifact(w io.Writer, blocks []selective.Block) error {
	for _, b := range blocks {
		if err := proxy.WriteBlock(w, b); err != nil {
			return err
		}
	}
	return proxy.WriteEnd(w, uint32(len(blocks)))
}

// readArtifact decodes a block stream and verifies the trailing count (the
// frame codec bounds every length and verifies every CRC). An artifact
// outlives the exchange — cache admission, replication — so each payload
// is copied out of the codec's pooled read buffer into an exact-size slice
// the cache's byte accounting can trust.
func readArtifact(r io.Reader) ([]selective.Block, error) {
	var blocks []selective.Block
	for {
		b, count, ok, err := proxy.ReadBlock(r)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrPeerProtocol, err)
		}
		if !ok {
			if int(count) != len(blocks) {
				return nil, fmt.Errorf("%w: stream claims %d blocks, carried %d", ErrPeerProtocol, count, len(blocks))
			}
			return blocks, nil
		}
		pooled := b.Payload
		if len(blocks) >= maxPeerBlocks {
			codec.PutBuf(pooled)
			return nil, fmt.Errorf("%w: more than %d blocks", ErrPeerProtocol, maxPeerBlocks)
		}
		b.Payload = append([]byte(nil), pooled...)
		codec.PutBuf(pooled)
		blocks = append(blocks, b)
	}
}
