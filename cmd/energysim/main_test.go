package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
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

// TestDocCommandsExist: every `energysim <word>` the top-level docs show
// names something the command accepts — an experiment id, all, soak, calib
// or a flag — so a retired experiment cannot linger in a documented
// command line.
func TestDocCommandsExist(t *testing.T) {
	known := map[string]bool{"all": true, "soak": true, "calib": true}
	for _, e := range experiment.Experiments() {
		known[e.ID] = true
	}
	word := regexp.MustCompile(`energysim[ \t]+([-\w]+)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range word.FindAllStringSubmatch(string(text), -1) {
			if w := m[1]; !known[w] && !strings.HasPrefix(w, "-") {
				t.Errorf("%s: %q is not an energysim id, subcommand or flag", doc, m[0])
			}
		}
	}
}

// soak runs `energysim soak args...` and returns what it printed.
func soak(args ...string) (stdout string, err error) {
	var out bytes.Buffer
	err = run(append([]string{"soak"}, args...), &out, io.Discard)
	return out.String(), err
}

// TestSoakMatchesGolden: CI's soak shape is a spec, and its trace is the
// one the flag-built soak printed before every soak was a spec (the golden
// was recorded from that binary; see docs/history/pr-25.md).
func TestSoakMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("../../testdata/scenarios/golden/default.seed1.trace")
	if err != nil {
		t.Fatal(err)
	}
	got, err := soak("-scenario", "../../testdata/scenarios/default.scn", "-seed", "1", "-trace")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("trace differs from default.seed1.trace; first line %q", strings.SplitN(got, "\n", 2)[0])
	}
}

// TestSoakOverrides: -nodes and -decider rewrite the spec before it is
// validated, everything else is an error rather than silently ignored,
// and the report without -trace leads with the digest and energy lines.
func TestSoakOverrides(t *testing.T) {
	const cluster3 = "../../testdata/scenarios/cluster-3.scn"
	tr, err := soak("-scenario", cluster3, "-nodes", "1", "-trace")
	if err != nil {
		t.Fatalf("-nodes 1 on cluster-3: %v", err)
	}
	if !strings.Contains(strings.SplitN(tr, "\n", 2)[0], " nodes=1 replicas=0 hotk=8 ") {
		t.Errorf("-nodes 1 did not clamp replicas: %q", strings.SplitN(tr, "\n", 2)[0])
	}

	tight := filepath.Join(t.TempDir(), "tight.scn")
	spec := "scenario tight\nclients 2\nfetches 2\nfile a.txt class mail size 2000\nexpect maxvirtual 1ns\n"
	if err := os.WriteFile(tight, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"no spec":              {"-seed", "1"},
		"bogus decider":        {"-scenario", cluster3, "-decider", "bogus"},
		"decider+differential": {"-scenario", cluster3, "-decider", "static", "-differential"},
		"removed flag":         {"-scenario", cluster3, "-clients", "4"},
		"bounds, single run":   {"-scenario", tight},
		"bounds, differential": {"-scenario", tight, "-differential"},
	} {
		if _, err := soak(args...); err == nil {
			t.Errorf("%s: soak %v exited 0", name, args)
		}
	}

	out, err := soak("-scenario", "../../testdata/scenarios/default.scn", "-seed", "1")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	for i, prefix := range []string{"soak seed=1: 40 fetches", "loadgen default seed=1: 4 clients", "latency: p50=", "energy: "} {
		if i >= len(lines) || !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("report line %d does not start %q:\n%s", i+1, prefix, out)
		}
	}
}
