package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden scenario traces from the current implementation")

// corpusDir is the committed scenario corpus; goldenDir holds one
// canonical trace per (spec, seed).
const (
	corpusDir = "../../testdata/scenarios"
	goldenDir = "../../testdata/scenarios/golden"
)

// goldenSeeds are the seeds every committed spec is pinned at. CI adds
// a fresh wall-clock seed on top (scripts/ci.sh) to keep the corpus
// honest about seeds nobody tuned for.
var goldenSeeds = []int64{1, 2}

// TestCorpusGoldenTraces runs every committed spec at every golden seed
// and diffs the canonical trace byte-for-byte against the committed
// golden file. Any intentional behavior change re-records with
// `go test ./internal/scenario -run TestCorpusGoldenTraces -update`
// — and the diff of the golden files then documents the change in
// review. Runs must also be clean: no structural-oracle violation and
// no breached expect bound.
func TestCorpusGoldenTraces(t *testing.T) {
	specs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 6 {
		t.Fatalf("scenario corpus has %d specs, floor is 6", len(specs))
	}
	for _, s := range specs {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range goldenSeeds {
				rep, err := s.Run(seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for _, v := range rep.Violations {
					t.Errorf("seed %d: %s", seed, v)
				}
				got := rep.Trace()
				path := filepath.Join(goldenDir, fmt.Sprintf("%s.seed%d.trace", s.Name, seed))
				if *update {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run with -update to record): %v", err)
				}
				if got != string(want) {
					t.Errorf("seed %d: trace diverged from %s:\n%s", seed, path, firstDiff(string(want), got))
				}
			}
		})
	}
}

// TestSchedulesBite: a spec's link schedule tests something only while
// the fleet is still fetching. For every committed spec with a schedule,
// at every golden seed, each linkat and powersave event must start before
// the run's last fetch ends; one that starts later reshapes nothing.
func TestSchedulesBite(t *testing.T) {
	specs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	scheduled := 0
	for _, s := range specs {
		if len(s.LinkAt)+len(s.PowerSave) == 0 {
			continue
		}
		scheduled++
		starts := make([]time.Duration, 0, len(s.LinkAt)+len(s.PowerSave))
		for _, c := range s.LinkAt {
			starts = append(starts, c.At)
		}
		for _, w := range s.PowerSave {
			starts = append(starts, w.Start)
		}
		for _, seed := range goldenSeeds {
			rep, err := s.Run(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", s.Name, seed, err)
			}
			var end time.Duration
			for _, rec := range rep.Records {
				end = max(end, rec.VStart+rec.Virtual)
			}
			for _, at := range starts {
				if at >= end {
					t.Errorf("%s seed %d: schedule event at %v starts after the last fetch ends (%v)", s.Name, seed, at, end)
				}
			}
		}
	}
	if scheduled == 0 {
		t.Fatal("no committed spec has a schedule")
	}
}

// TestCorpusDeterminism extends the harness's replay guarantee to the
// whole committed corpus: for every spec, the same seed must produce a
// byte-identical canonical trace twice over, and a different seed must
// produce a different one (a trace that ignored its seed would make the
// golden gate vacuous). Seeds here are deliberately not the golden
// seeds, so determinism holds off the recorded path too.
func TestCorpusDeterminism(t *testing.T) {
	specs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			a1, err := s.Run(7)
			if err != nil {
				t.Fatal(err)
			}
			a2, err := s.Run(7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.Run(8)
			if err != nil {
				t.Fatal(err)
			}
			if a1.Trace() != a2.Trace() {
				t.Errorf("seed 7 replay diverged:\n%s", firstDiff(a1.Trace(), a2.Trace()))
			}
			if a1.Trace() == b.Trace() {
				t.Error("seeds 7 and 8 produced identical traces")
			}
		})
	}
}

// firstDiff renders the first line where two traces disagree.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, w, g)
		}
	}
	return "traces equal"
}

// LoadDir loads every *.scn spec directly under dir, sorted by name.
// It errors on an empty corpus: a scenario gate that silently checks
// nothing is worse than no gate.
func LoadDir(dir string) ([]*Spec, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.scn"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no *.scn specs in %s", dir)
	}
	sort.Strings(paths)
	specs := make([]*Spec, 0, len(paths))
	for _, p := range paths {
		s, err := Load(p)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// TestDynamicDeciderOnARing runs decider-dynamic.scn on a 3-node ring.
// Its handhelds declare a deadline class, so their selective artifacts
// are keyed by class-derived fingerprints: every owner must build those
// for its peers, so no peer fetch fails and no key is compressed twice
// ring-wide.
func TestDynamicDeciderOnARing(t *testing.T) {
	s, err := Load(filepath.Join(corpusDir, "decider-dynamic.scn"))
	if err != nil {
		t.Fatal(err)
	}
	s.Cluster.Nodes = 3
	for seed := int64(1); seed <= 3; seed++ {
		rep, err := s.Run(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range rep.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
		if rep.Stats.PeerFetches == 0 || rep.Stats.PeerFetchErrors != 0 {
			t.Errorf("seed %d: %d peer fetches, %d failed; want some and none failed",
				seed, rep.Stats.PeerFetches, rep.Stats.PeerFetchErrors)
		}
	}
}
