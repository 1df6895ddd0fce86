package proxy

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/selective"
)

// writeRequest and readRequest frame and parse one request on their own,
// as the tests' hand-rolled peers do.
func writeRequest(w io.Writer, req request) error {
	buf, err := appendRequest(nil, req)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

func readRequest(r io.Reader) (request, error) { return new(requestReader).read(r) }

// FuzzReadRequest throws arbitrary bytes at the PXY3 request parser:
// malformed magic, truncated frames and oversized length fields must
// produce errors, never a panic or an over-allocation; frames the parser
// accepts must survive a write/read round trip unchanged, read back
// through the scratch the first read left behind, as a kept connection's
// next request is.
func FuzzReadRequest(f *testing.F) {
	// Well-formed GET (with a resume offset and a request ID) and LIST
	// requests, built by the writer so their trailing CRCs are valid.
	var get, getEx, list bytes.Buffer
	_ = writeRequest(&get, request{Op: opGet, Name: "doc.xml", Scheme: 1, Mode: ModeSelective, Offset: 128_000, ReqID: 0xFEED})
	_ = writeRequest(&getEx, request{Op: opGetEx, Name: "doc.xml", Scheme: 1, Mode: ModeSelective, Offset: 128_000, ReqID: 0xFEED, Class: 3, BudgetMJ: 2500})
	_ = writeRequest(&list, request{Op: opList})
	f.Add(get.Bytes())
	f.Add(getEx.Bytes())
	f.Add(list.Bytes())
	// An extended GET truncated at the old tail length: the CRC must
	// refuse it rather than the parser misreading the attribute bytes.
	f.Add(getEx.Bytes()[:getEx.Len()-5])
	// Bad magic (including the previous protocol generation), bad CRC,
	// truncation at every interesting boundary, oversized name.
	f.Add([]byte("QXY3\x02\x00\x07doc.xml\x01\x03"))
	f.Add(append(get.Bytes()[:get.Len()-1], 0xAA)) // last CRC byte flipped
	f.Add([]byte("PXY2\x02\x00\x07doc"))
	f.Add([]byte("PXY3"))
	f.Add([]byte("PXY3\x02"))
	f.Add([]byte("PXY3\x02\x00\x07doc"))
	f.Add([]byte("PXY3\x02\xff\xff"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var rr requestReader
		req, err := rr.read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(req.Name) > maxNameLen {
			t.Fatalf("accepted name of %d bytes, cap is %d", len(req.Name), maxNameLen)
		}
		var buf bytes.Buffer
		if err := writeRequest(&buf, req); err != nil {
			t.Fatalf("re-encode of accepted request failed: %v", err)
		}
		back, err := rr.read(&buf)
		if err != nil {
			t.Fatalf("re-decode of accepted request failed: %v", err)
		}
		if back != req {
			t.Fatalf("round trip changed request: %+v != %+v", back, req)
		}
	})
}

// FuzzReadBlockFrame does the same for the block framing: oversized
// payload or raw lengths must be refused before allocation, unknown flags
// and payload-CRC mismatches must error, and accepted frames must
// round-trip.
func FuzzReadBlockFrame(f *testing.F) {
	// Raw block, compressed block, end frame, built by the writers so the
	// payload CRCs are valid.
	var raw, comp, end bytes.Buffer
	_ = WriteBlock(&raw, selective.Block{RawLen: 5, Payload: []byte("hello")})
	_ = WriteBlock(&comp, selective.Block{Compressed: true, RawLen: 256, Payload: []byte("zzzz")})
	_ = WriteEnd(&end, 0xDEADBEEF)
	f.Add(raw.Bytes())
	f.Add(comp.Bytes())
	f.Add(end.Bytes())
	// A PXY-P artifact stream (internal/cluster shares this codec): the end
	// frame's trailer is a block count there, not a content CRC.
	var peerEnd bytes.Buffer
	_ = WriteEnd(&peerEnd, 2)
	f.Add(peerEnd.Bytes())
	// Oversized payload length, oversized raw length, bad flag, corrupted
	// payload (CRC mismatch), truncated header and payload.
	f.Add([]byte("\x01\x00\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00"))
	f.Add([]byte("\x01\xff\xff\xff\xff\x00\x00\x00\x04\x00\x00\x00\x00zzzz"))
	f.Add([]byte("\x07\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(append(raw.Bytes()[:raw.Len()-1], 'X'))
	f.Add([]byte("\x00\x00\x00"))
	f.Add(raw.Bytes()[:raw.Len()-2])

	f.Fuzz(func(t *testing.T, data []byte) {
		b, crc, ok, err := ReadBlock(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !ok {
			// End frame: re-encode and confirm the CRC survives.
			var buf bytes.Buffer
			if err := WriteEnd(&buf, crc); err != nil {
				t.Fatal(err)
			}
			_, crc2, ok2, err := ReadBlock(&buf)
			if err != nil || ok2 || crc2 != crc {
				t.Fatalf("end frame round trip: crc %d->%d ok=%v err=%v", crc, crc2, ok2, err)
			}
			return
		}
		if len(b.Payload) > maxBlockWire {
			t.Fatalf("accepted payload of %d bytes, cap is %d", len(b.Payload), maxBlockWire)
		}
		var buf bytes.Buffer
		if err := WriteBlock(&buf, b); err != nil {
			t.Fatal(err)
		}
		back, _, ok2, err := ReadBlock(&buf)
		if err != nil || !ok2 {
			t.Fatalf("re-decode of accepted block failed: ok=%v err=%v", ok2, err)
		}
		if back.Compressed != b.Compressed || back.RawLen != b.RawLen || !bytes.Equal(back.Payload, b.Payload) {
			t.Fatal("round trip changed block")
		}
	})
}
