package main

import (
	"bytes"
	"strconv"
	"testing"
)

var schemes = []string{"gzip", "compress", "bzip2", "zlib"}

// czip runs the command on stdin and returns what it wrote to stdout.
func czip(t *testing.T, stdin []byte, args ...string) ([]byte, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, bytes.NewReader(stdin), &stdout, &stderr)
	return stdout.Bytes(), err
}

// TestEverySchemeRoundTrips: what each scheme writes, czip -d reads back as
// the input.
func TestEverySchemeRoundTrips(t *testing.T) {
	data := bytes.Repeat([]byte("czip holds its input and hands it to the codec. "), 400)
	for _, scheme := range schemes {
		comp, err := czip(t, data, "-scheme", scheme)
		if err != nil {
			t.Fatalf("%s: compress: %v", scheme, err)
		}
		back, err := czip(t, comp, "-d", "-scheme", scheme)
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("%s: decompress: %d bytes of %d, err %v", scheme, len(back), len(data), err)
		}
	}
}

// TestDecompressHonoursMaxSize: czip -d refuses a stream whose output
// exceeds -maxsize and writes nothing, for gzip as for every other scheme,
// and decodes one whose output is exactly that size.
func TestDecompressHonoursMaxSize(t *testing.T) {
	data := make([]byte, 100_000)
	for _, scheme := range schemes {
		comp, err := czip(t, data, "-scheme", scheme)
		if err != nil {
			t.Fatalf("%s: compress: %v", scheme, err)
		}
		out, err := czip(t, comp, "-d", "-scheme", scheme, "-maxsize", strconv.Itoa(len(data)-1))
		if err == nil || len(out) != 0 {
			t.Errorf("%s: -maxsize %d: %d bytes written, err %v; want a refusal", scheme, len(data)-1, len(out), err)
		}
		out, err = czip(t, comp, "-d", "-scheme", scheme, "-maxsize", strconv.Itoa(len(data)))
		if err != nil || len(out) != len(data) {
			t.Errorf("%s: -maxsize %d: %d bytes, err %v", scheme, len(data), len(out), err)
		}
	}
}
