// Command bench is the repository's benchmark: one workload per process,
// every output checked, every metric printed by name with its unit, and one
// JSON object on the last line of standard output.
//
//	bash bench/run.sh -workload hit-small [-seed N] [-seconds S] [-trace 1]
//	bash bench/run.sh -repeat 10 -sets 5
//
// See README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale shrinks pass sizes, file sizes and probe loops for the smoke
	// test; measured runs use 1.
	scale float64
	// outDir is where the traced run writes trace-<workload>.json.
	outDir string
}

// traceDir is relative to the checkout root, where run.sh starts the
// binary; the root .gitignore names it.
const traceDir = "bench/out"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last-line JSON object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	cfg := config{outDir: traceDir}
	var trace, repeat, sets int
	flag.StringVar(&cfg.workload, "workload", "", "one of hit-small, hit-large, miss-large, fleet-sim")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for corpus content and request order")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.Float64Var(&cfg.scale, "scale", 1, "shrink the workload (smoke tests only)")
	flag.IntVar(&repeat, "repeat", 0, "run every workload (or just -workload) N times in child processes and print the noise table")
	flag.IntVar(&sets, "sets", 1, "with -repeat: how many sets of N runs")
	flag.Parse()
	cfg.trace = trace != 0

	if repeat > 0 {
		if err := repeatRuns(os.Stdout, cfg.workload, repeat, sets, cfg.seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if res.Metrics == nil {
			os.Exit(1)
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "bench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func newWorkload(cfg config, col *collector) (workload, error) {
	if cfg.workload == "fleet-sim" {
		return newFleet(cfg.seed, cfg.scale), nil
	}
	if _, ok := loopSpecs[cfg.workload]; ok {
		return newLoopback(cfg.workload, cfg.seed, cfg.scale, col), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// setupReps cold set-ups are timed per end-to-end run; setup_s is their
// median. The last one's system is the one measured.
const setupReps = 3

// run executes one workload and prints its scoreboard to w. A non-nil
// error with result.Metrics set means the run completed but an oracle
// failed.
func run(cfg config, w io.Writer) (result, error) {
	ref, err := newRefKernel()
	if err != nil {
		return result{}, err
	}
	if cfg.trace {
		return runTraced(cfg, ref, w)
	}

	var setups []float64
	var wl workload
	for r := 0; r < setupReps; r++ {
		if wl != nil {
			if err := wl.close(); err != nil {
				return result{}, err
			}
		}
		if wl, err = newWorkload(cfg, nil); err != nil {
			return result{}, err
		}
		before, err := ref.read()
		if err != nil {
			return result{}, err
		}
		start := time.Now()
		if err := wl.setup(); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(start)
		after, err := ref.read()
		if err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds()*speedFactor(before.wallMs, after.wallMs))
		if cfg.scale < 1 {
			break // the smoke test checks plumbing, not set-up noise
		}
	}

	recs, err := runPasses(wl, ref, cfg.seconds, 1, nil)
	if err != nil {
		return result{}, err
	}
	sum, err := summarise(recs, wl.cycle(), wl.virtualClock())
	if err != nil {
		return result{}, err
	}
	oracleErr := wl.close()
	if oracleErr == nil {
		oracleErr = wl.check(sum.ops)
	}
	sum.metrics["setup_s"] = median(setups)
	sum.metrics["peak_rss_mb"] = peakRSSMB()

	fmt.Fprintf(w, "workload %s seed %d: %d passes, ops %d, failed %d\n", cfg.workload, cfg.seed, len(recs), sum.ops, sum.failed)
	res, err := report(w, endToEnd, sum.metrics, sum, oracleErr)
	printMetric(w, "proxy.fetch_tail_ms", sum.tailMs, fmt.Sprintf("nms (p%g, not gated)", sum.tailPct))
	printMetric(w, "host.speed_factor_p50", sum.kMedian, "ratio")
	printMetric(w, "host.raw_fetches_per_s", sum.rawFetchesPerS, "1/s")
	printMetric(w, "host.stolen_cpu_pct", sum.stolenPct, "%")
	return res, err
}

// printMetric writes one scoreboard line; repeat.go parses this layout.
func printMetric(w io.Writer, name string, value float64, unit string) {
	fmt.Fprintf(w, "%-36s %14.6g %s\n", name, value, unit)
}

// report prints one line per definition and returns the run's result: its
// verdict over sum's fetches and the oracles, and the same metrics for the
// JSON line. A metric the run did not produce prints as 0: per-layer names
// are the same on every workload, and 0 is how "this layer did no work
// here" reads.
func report(w io.Writer, defs []metricDef, values map[string]float64, sum summary, oracleErr error) (result, error) {
	res := result{
		Correct:   oracleErr == nil && sum.failed == 0,
		Attempted: sum.ops + sum.failed,
		Failed:    sum.failed,
		Metrics:   make(map[string]metricValue),
	}
	for _, d := range defs {
		v := values[d.name]
		printMetric(w, d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if oracleErr != nil {
		return res, fmt.Errorf("oracle: %w", oracleErr)
	}
	if sum.failed > 0 {
		return res, fmt.Errorf("%d of %d fetches failed", sum.failed, res.Attempted)
	}
	return res, nil
}
