package workload_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/workload"
)

// benchFileDigests are the first eight bytes of the SHA-256 of each raw
// bench file. bench/loopback.go builds the same six files from a copy of
// this table that no test here can reach; the pin is what keeps the two
// from drifting apart unnoticed.
var benchFileDigests = []struct{ name, digest string }{
	{"prog.c", "70aac73176a5bd13"},
	{"spec.html", "def0f688d3d4af2e"},
	{"tool.bin", "d5e1daf997777d53"},
	{"paper.ps", "539b4f5a9f246040"},
	{"deck.mixed", "6ae08a15c6749c35"},
	{"media.r115", "fa836b018deba04f"},
}

func TestBenchFilesPinned(t *testing.T) {
	files := workload.BenchFiles(gzipFactor(t))
	if len(files) != len(benchFileDigests) {
		t.Fatalf("%d bench files, %d pinned", len(files), len(benchFileDigests))
	}
	for i, want := range benchFileDigests {
		sum := sha256.Sum256(files[i].Data)
		if got := hex.EncodeToString(sum[:8]); files[i].Name != want.name || got != want.digest {
			t.Errorf("file %d: %s with digest %s, pinned %s with %s", i, files[i].Name, got, want.name, want.digest)
		}
	}
}
