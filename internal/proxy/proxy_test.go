package proxy

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/workload"
)

// startServer spins up a server on a loopback port with the standard test
// corpus registered.
func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv := NewServer(nil)
	srv.Register("doc.xml", workload.Generate(workload.ClassXML, 600_000, 1))
	srv.Register("app.bin", workload.Generate(workload.ClassBinary, 400_000, 2))
	srv.Register("noise.dat", workload.Generate(workload.ClassRandom, 300_000, 3))
	srv.Register("mixed.tar", workload.MixedFile(640_000, 4))
	srv.Register("tiny.txt", []byte("below the 3900-byte threshold"))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, NewClient(addr)
}

func TestList(t *testing.T) {
	_, cli := startServer(t)
	names, err := cli.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"app.bin", "doc.xml", "mixed.tar", "noise.dat", "tiny.txt"}
	if len(names) != len(want) {
		t.Fatalf("got %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("got %v, want %v", names, want)
		}
	}
}

// TestListOmitsUnfetchableNames: Register accepts any name, but one past
// maxNameLen can never be requested. Listing it used to fail every
// client's List with a retried protocol error (5,000 bytes) or wrap the
// u16 length and corrupt the stream (70,000 bytes); List must return
// exactly the fetchable names.
func TestListOmitsUnfetchableNames(t *testing.T) {
	srv := NewServer(nil)
	srv.Register(strings.Repeat("a", 5_000), []byte("x"))
	srv.Register("normal.txt", []byte("y"))
	srv.Register(strings.Repeat("z", 70_000), []byte("z"))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	names, err := NewClient(addr).List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "normal.txt" {
		t.Fatalf("List returned %d names, want exactly [normal.txt]", len(names))
	}
}

func TestFetchAllModesAllSchemes(t *testing.T) {
	srv, cli := startServer(t)
	content := workload.Generate(workload.ClassXML, 600_000, 1)
	for _, scheme := range codec.Schemes() {
		if err := srv.Precompress("doc.xml", scheme); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeRaw, ModePrecompressed, ModeOnDemand, ModeSelective} {
			got, stats, err := cli.Fetch("doc.xml", scheme, mode)
			if err != nil {
				t.Fatalf("%v/%v: %v", scheme, mode, err)
			}
			if !bytes.Equal(got, content) {
				t.Fatalf("%v/%v: content mismatch", scheme, mode)
			}
			if stats.RawBytes != len(content) {
				t.Errorf("%v/%v: raw bytes %d", scheme, mode, stats.RawBytes)
			}
			if mode == ModeRaw && stats.BlocksCompressed != 0 {
				t.Errorf("raw mode compressed %d blocks", stats.BlocksCompressed)
			}
			if mode != ModeRaw && stats.Factor < 5 {
				t.Errorf("%v/%v: factor %.2f on highly compressible xml", scheme, mode, stats.Factor)
			}
		}
	}
}

func TestSelectiveSkipsIncompressible(t *testing.T) {
	_, cli := startServer(t)
	got, stats, err := cli.Fetch("noise.dat", codec.Zlib, ModeSelective)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksCompressed != 0 {
		t.Errorf("selective compressed %d/%d random blocks", stats.BlocksCompressed, stats.BlocksTotal)
	}
	if len(got) != 300_000 {
		t.Errorf("got %d bytes", len(got))
	}
	// On-demand blind compression, by contrast, compresses everything.
	_, blind, err := cli.Fetch("noise.dat", codec.Zlib, ModeOnDemand)
	if err != nil {
		t.Fatal(err)
	}
	if blind.BlocksCompressed != blind.BlocksTotal {
		t.Errorf("on-demand left %d blocks raw", blind.BlocksTotal-blind.BlocksCompressed)
	}
	if blind.WireBytes < stats.WireBytes {
		t.Errorf("blind wire %d should exceed selective %d on random data", blind.WireBytes, stats.WireBytes)
	}
}

func TestSelectiveMixedFile(t *testing.T) {
	_, cli := startServer(t)
	got, stats, err := cli.Fetch("mixed.tar", codec.Zlib, ModeSelective)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, workload.MixedFile(640_000, 4)) {
		t.Fatal("content mismatch")
	}
	if stats.BlocksCompressed == 0 || stats.BlocksCompressed == stats.BlocksTotal {
		t.Errorf("mixed file: %d/%d blocks compressed", stats.BlocksCompressed, stats.BlocksTotal)
	}
}

func TestTinyFileStaysRaw(t *testing.T) {
	_, cli := startServer(t)
	got, stats, err := cli.Fetch("tiny.txt", codec.Gzip, ModeSelective)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "below the 3900-byte threshold" {
		t.Fatalf("got %q", got)
	}
	if stats.BlocksCompressed != 0 {
		t.Error("sub-threshold file compressed")
	}
}

func TestNotFound(t *testing.T) {
	_, cli := startServer(t)
	if _, _, err := cli.Fetch("missing", codec.Gzip, ModeRaw); err == nil {
		t.Fatal("expected not-found error")
	}
}

func TestConcurrentFetches(t *testing.T) {
	_, cli := startServer(t)
	want := workload.Generate(workload.ClassBinary, 400_000, 2)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mode := []Mode{ModeRaw, ModeOnDemand, ModeSelective, ModePrecompressed}[i%4]
			got, _, err := cli.Fetch("app.bin", codec.Gzip, mode)
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, want) {
				errs[i] = ErrProtocol
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("fetch %d: %v", i, err)
		}
	}
}

func TestPrecompressUnknownFile(t *testing.T) {
	srv, _ := startServer(t)
	if err := srv.Precompress("nope", codec.Gzip); err == nil {
		t.Fatal("expected error")
	}
}

func TestRegisterCopiesContent(t *testing.T) {
	srv := NewServer(nil)
	data := []byte("mutable")
	srv.Register("f", data)
	data[0] = 'X'
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	got, _, err := NewClient(addr).Fetch("f", codec.Gzip, ModeRaw)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "mutable" {
		t.Errorf("server content aliased caller slice: %q", got)
	}
}
