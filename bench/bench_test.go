package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkFileMatchesCode is the drift guard: the names, units and
// bounds BENCHMARK.json declares are exactly the ones the command prints.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code has %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in code", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code has %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in code", i, m, d)
		}
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]{1,64}", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q is outside the allowed alphabet", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
}

func metricNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []metricDef) []string {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload end to end at a fiftieth of its size, in
// both modes: the oracles must run and pass, nothing may fail, and the
// metric set must be exactly the declared one.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			label, want := name+"/end-to-end", defNames(endToEnd)
			if trace {
				label, want = name+"/traced", defNames(perLayer)
			}
			t.Run(label, func(t *testing.T) {
				cfg := config{workload: name, seed: 7, seconds: 0.2, trace: trace, scale: 0.02, outDir: t.TempDir()}
				res, err := run(cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if got := metricNames(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
					t.Fatalf("printed metrics\n %v\nwant\n %v", got, want)
				}
				for n, v := range res.Metrics {
					if v.Value != v.Value || v.Value < 0 && n != "obs.trace_overhead_pct" {
						t.Errorf("%s = %g", n, v.Value)
					}
				}
				if trace {
					if _, err := os.Stat(cfg.outDir + "/trace-" + name + ".json"); err != nil {
						t.Errorf("traced run wrote no span file: %v", err)
					}
					return
				}
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s = %g: end-to-end metrics are never 0", d.name, res.Metrics[d.name].Value)
					}
				}
			})
		}
	}
}

// TestOraclesCatchAWrongCount feeds each workload's end-of-run check a
// fetch count the server's counters cannot match.
func TestOraclesCatchAWrongCount(t *testing.T) {
	for _, name := range []string{"hit-small", "miss-large"} {
		l := newLoopback(name, 3, 0.02, nil)
		if err := l.setup(); err != nil {
			t.Fatal(err)
		}
		var rec passRec
		if err := l.pass(0, &rec); err != nil {
			t.Fatal(err)
		}
		if err := l.close(); err != nil {
			t.Fatal(err)
		}
		if err := l.check(rec.exact.ops); err != nil {
			t.Errorf("%s: honest count rejected: %v", name, err)
		}
		if err := l.check(rec.exact.ops + 1); err == nil {
			t.Errorf("%s: a fetch the server never counted went unnoticed", name)
		}
	}
}
