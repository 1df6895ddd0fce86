package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// rawRate is the one unnormalised line the noise table carries beside the
// scoreboard, to show what the normaliser buys.
const rawRate = "host.raw_fetches_per_s"

// runChild runs one workload in a fresh process (so peak RSS and the heap
// start clean, exactly as the gate runs it) and parses its last line, plus
// the raw fetch rate from the lines above it.
func runChild(workload string, seed uint64, seconds float64) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	var raw float64
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) >= 2 && f[0] == rawRate {
			raw, _ = strconv.ParseFloat(f[1], 64)
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	res.Metrics[rawRate] = metricValue{Value: raw, Unit: "1/s"}
	return res, nil
}

// repeatRuns measures the benchmark's own noise: sets × n end-to-end runs
// of every workload (or only the named one), run r of a set at seed r. Per metric it prints each
// set's median, its quartile spread (q3-q1 over the median, the acceptance
// rule's statistic) and its range, then how far the set medians sit apart
// — the number a bound has to clear. Every single reading follows, so the
// summary can be recomputed.
func repeatRuns(w io.Writer, only string, n, sets int, seconds float64) error {
	fmt.Fprintf(w, "%d sets of %d runs per workload, %g s measured per run, seeds 1..%d in every set.\n\n", sets, n, seconds, n)
	fmt.Fprintf(w, "- spread = (q3-q1)/median of one set's runs (quartiles as Python's statistics.quantiles gives them); worst over the sets\n")
	fmt.Fprintf(w, "- range = (max-min)/median of one set's runs; worst over the sets\n")
	fmt.Fprintf(w, "- drift = (max-min)/median of the set medians\n")
	defs := append(append([]metricDef(nil), endToEnd...), metricDef{name: rawRate, unit: "1/s"})
	for _, wl := range workloadNames {
		if only != "" && wl != only {
			continue
		}
		// values[metric][set] are that set's n readings.
		values := make(map[string][][]float64)
		for _, d := range defs {
			values[d.name] = make([][]float64, sets)
		}
		for s := 0; s < sets; s++ {
			for r := 0; r < n; r++ {
				res, err := runChild(wl, uint64(r+1), seconds)
				if err != nil {
					return err
				}
				for _, d := range defs {
					values[d.name][s] = append(values[d.name][s], res.Metrics[d.name].Value)
				}
			}
		}
		fmt.Fprintf(w, "\n### %s\n\n", wl)
		fmt.Fprintf(w, "| metric | unit | bound | set medians | spread | range | drift | bound/drift |\n|---|---|---|---|---|---|---|---|\n")
		for _, d := range defs {
			var meds []string
			var medv []float64
			var worstSpread, worstRange float64
			for _, set := range values[d.name] {
				m := median(append([]float64(nil), set...))
				medv = append(medv, m)
				meds = append(meds, strconv.FormatFloat(m, 'g', 6, 64))
				worstSpread = max(worstSpread, spread(set))
				worstRange = max(worstRange, relRange(set, m))
			}
			drift := relRange(medv, median(append([]float64(nil), medv...)))
			bound, ratio := "-", "-"
			if d.bound > 0 {
				bound, ratio = strconv.FormatFloat(d.bound, 'g', -1, 64), "exact"
				if drift > 0 {
					ratio = strconv.FormatFloat(d.bound/drift, 'f', 1, 64)
				}
			}
			fmt.Fprintf(w, "| %s | %s | %s | %s | %.4f | %.4f | %.4f | %s |\n", d.name, d.unit, bound, strings.Join(meds, " "), worstSpread, worstRange, drift, ratio)
		}
		fmt.Fprintf(w, "\nEvery reading (one line per set):\n\n```\n")
		for _, d := range defs {
			for s, set := range values[d.name] {
				fmt.Fprintf(w, "%-24s set %d:", d.name, s+1)
				for _, v := range set {
					fmt.Fprintf(w, " %.6g", v)
				}
				fmt.Fprintln(w)
			}
		}
		fmt.Fprintf(w, "```\n")
	}
	return nil
}

// relRange is (max-min)/mid, 0 when mid is 0.
func relRange(vs []float64, mid float64) float64 {
	if len(vs) == 0 || mid == 0 {
		return 0
	}
	return (slices.Max(vs) - slices.Min(vs)) / mid
}
