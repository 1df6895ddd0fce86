//go:build corpusgen

package proxy

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/selective"
)

// TestRegenFuzzCorpus rewrites the checked-in fuzz seeds in the current
// wire format. Run with: go test -tags corpusgen -run TestRegenFuzzCorpus ./internal/proxy
func TestRegenFuzzCorpus(t *testing.T) {
	write := func(fuzzName, seedName string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, seedName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %s/%s (%d bytes)\n", fuzzName, seedName, len(data))
	}

	var get bytes.Buffer
	if err := writeRequest(&get, request{Op: opGet, Name: "index.txt", Scheme: 1, Mode: ModeOnDemand, Offset: 128_000, ReqID: 0xC0FFEE}); err != nil {
		t.Fatal(err)
	}
	write("FuzzReadRequest", "seed-valid-get", get.Bytes())

	var getEx bytes.Buffer
	if err := writeRequest(&getEx, request{Op: opGetEx, Name: "index.txt", Scheme: 1, Mode: ModeSelective, Offset: 128_000, ReqID: 0xC0FFEE, Class: 2, BudgetMJ: 1500}); err != nil {
		t.Fatal(err)
	}
	write("FuzzReadRequest", "seed-valid-getex", getEx.Bytes())
	write("FuzzReadRequest", "seed-bad-magic", append([]byte("QXY3"), get.Bytes()[4:]...))
	write("FuzzReadRequest", "seed-overlong-name", []byte("PXY3\x02\xff\xfe"))
	write("FuzzReadRequest", "seed-bad-crc", append(get.Bytes()[:get.Len()-1], get.Bytes()[get.Len()-1]^0xFF))

	var raw, end bytes.Buffer
	if err := WriteBlock(&raw, selective.Block{RawLen: 4, Payload: []byte("data")}); err != nil {
		t.Fatal(err)
	}
	if err := WriteEnd(&end, 0x12345678); err != nil {
		t.Fatal(err)
	}
	write("FuzzReadBlockFrame", "seed-raw-block", raw.Bytes())
	write("FuzzReadBlockFrame", "seed-end-frame", end.Bytes())
	var peerEnd bytes.Buffer
	if err := WriteEnd(&peerEnd, 2); err != nil {
		t.Fatal(err)
	}
	write("FuzzReadBlockFrame", "seed-peer-count-end-frame", peerEnd.Bytes())
	write("FuzzReadBlockFrame", "seed-oversized-payload",
		[]byte("\x01\x00\x00\x00\x08\x7f\xff\xff\xff\x00\x00\x00\x00"))
	write("FuzzReadBlockFrame", "seed-bad-payload-crc",
		append(raw.Bytes()[:raw.Len()-1], raw.Bytes()[raw.Len()-1]^0xFF))
}
