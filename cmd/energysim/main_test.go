package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// reduced is the configuration of testdata/figures/all.reduced.golden.
var reduced = []string{"-scale", "0.0125", "-large", "4", "-small", "3"}

func runReduced(t *testing.T, ids ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(append([]string{}, reduced...), ids...), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestAllMatchesGolden holds every cell `energysim all` prints: the golden
// is the parent commit's output at the reduced configuration (see
// CHANGES.md, PR 16), so any number a change moves fails here by line.
func TestAllMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("../../testdata/figures/all.reduced.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(runReduced(t, "all"), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d differs from the golden:\n got  %q\n want %q", i+1, g, w)
		}
	}
}

// TestEveryIDListedAndRuns checks the table against the CLI surface built
// from it: each id is in the usage listing and the unknown-id error, and
// the ids `all` leaves out run on their own.
func TestEveryIDListedAndRuns(t *testing.T) {
	var usage bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &usage); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"no-such-id"}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	for _, e := range experiment.Experiments() {
		if !strings.Contains(usage.String(), "\n  "+e.ID+" ") {
			t.Errorf("usage text does not list %s", e.ID)
		}
		if !strings.Contains(err.Error(), "\n  "+e.ID+" ") {
			t.Errorf("unknown-id error does not list %s", e.ID)
		}
		if e.Data && runReduced(t, e.ID) == "" {
			t.Errorf("%s printed nothing", e.ID)
		}
	}
	if err := run(nil, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "trace-csv") {
		t.Errorf("missing-id error should list the ids, got %v", err)
	}
}
