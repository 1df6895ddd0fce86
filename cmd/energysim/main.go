// Command energysim regenerates the paper's tables and figures on the
// simulated iPAQ/WaveLAN testbed and prints them as text tables.
//
// Usage:
//
//	energysim -scale 0.125 table2
//	energysim -scale 0.125 fig2
//	energysim all
//
// The experiment ids are the rows of internal/experiment's table; run
// energysim with no argument (or -h) to list them.
//
// The soak subcommand runs one declarative scenario spec
// (internal/scenario: fleet size, link schedule, workload corpus and
// expected-outcome bounds) on the virtual testbed (internal/harness) and
// checks every invariant oracle and bound. It prints a digest line and
// the fleet report — latency percentiles, the radio/cpu/idle energy
// split, per-node cluster lines and per-scheme throughput — or, with
// -trace, the canonical trace alone:
//
//	energysim soak -scenario testdata/scenarios/default.scn -seed 42
//	energysim soak -scenario testdata/scenarios/rate-cliff.scn -seed 1 -trace
//	energysim soak -scenario testdata/scenarios/loadgen/fleet-10k.scn -nodes 3
//
// The same seed always produces a byte-identical trace, so any soak
// failure CI reports can be replayed locally from its printed seed.
// -events FILE also writes the canonical wide-event stream as JSONL (same
// determinism guarantee). -nodes and -decider override the spec's ring
// size and selective-mode policy; -differential runs the paired
// static-vs-dynamic oracle instead of a single run:
//
//	energysim soak -scenario testdata/scenarios/decider-dynamic.scn -differential
//
// The calib subcommand fits a previously exported event stream:
//
//	energysim calib -events soak.jsonl
//	energysim calib -events soak.jsonl -window 10s
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/calib"
	"repro/internal/experiment"
	"repro/internal/harness"
	"repro/internal/obs/agg"
	"repro/internal/obs/export"
	"repro/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "energysim:", err)
		os.Exit(1)
	}
}

func run(argv []string, stdout, stderr io.Writer) error {
	if len(argv) > 0 && argv[0] == "soak" {
		return runSoak(argv[1:], stdout, stderr)
	}
	if len(argv) > 0 && argv[0] == "calib" {
		return runCalib(argv[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("energysim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale  = fs.Float64("scale", 0.125, "corpus size scale for large files")
		nLarge = fs.Int("large", 0, "limit to first N large files (0 = all)")
		nSmall = fs.Int("small", 0, "limit to first N small files (0 = all)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: energysim [flags] <id>... | all | soak [flags] | calib [flags]")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, idList())
	}
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("pass an experiment id or all\n%s", idList())
	}
	cfg := experiment.Config{Scale: *scale, LargeSubset: *nLarge, SmallSubset: *nSmall}

	ids := fs.Args()
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range experiment.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		e, ok := experiment.Lookup(id)
		if !ok {
			return fmt.Errorf("unknown experiment id %q\n%s", id, idList())
		}
		out, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintln(stdout, out)
	}
	return nil
}

// idList renders the experiment table as the id listing shared by the
// usage text and the missing/unknown-id errors.
func idList() string {
	var b strings.Builder
	b.WriteString("experiment ids (all runs every one):")
	for _, e := range experiment.Experiments() {
		fmt.Fprintf(&b, "\n  %-20s%s", e.ID, e.Title)
	}
	return b.String()
}

// runSoak runs one scenario spec on the virtual testbed and prints either
// its canonical trace or a digest line and the fleet report, and fails if
// any invariant oracle or expect bound is violated — the error names the
// first violation and the replay command, so CI logs lead with the actual
// failure. -nodes and -decider rewrite the spec before it is validated.
func runSoak(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath = fs.String("scenario", "", "scenario spec file to run (required)")
		seed     = fs.Int64("seed", 1, "scenario seed; same seed => byte-identical trace")
		trace    = fs.Bool("trace", false, "print the canonical trace instead of the digest and fleet report")
		events   = fs.String("events", "", "write the canonical wide-event stream as JSONL to this file")
		diff     = fs.Bool("differential", false, "run the paired static-vs-dynamic differential oracle instead of a single run")
		nodes    = fs.Int("nodes", 0, "override the spec's cluster node count (1 forces a single node)")
		deciderP = fs.String("decider", "", "override the spec's selective-mode policy: static or dynamic")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *specPath == "" {
		return fmt.Errorf("soak: -scenario FILE is required")
	}
	if *diff && *deciderP != "" {
		return fmt.Errorf("soak: -differential runs both deciders; drop -decider")
	}
	spec, err := scenario.Load(*specPath)
	if err != nil {
		return err
	}
	replay := fmt.Sprintf("energysim soak -scenario %s -seed %d -trace", *specPath, *seed)
	if *nodes != 0 {
		spec.Cluster.Nodes = *nodes
		// A smaller ring can't hold the spec's replication factor; clamp it
		// so `-nodes 1` (the single-node baseline of a scaling comparison)
		// works against any cluster spec.
		spec.Cluster.Replicas = min(spec.Cluster.Replicas, *nodes-1)
		replay += fmt.Sprintf(" -nodes %d", *nodes)
	}
	if *deciderP != "" {
		spec.Decider = *deciderP
		replay += " -decider " + *deciderP
	}
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("soak: %w", err)
	}
	if *diff {
		return runDifferential(spec.Compile(*seed), stdout, stderr)
	}

	start := time.Now()
	r, err := spec.Run(*seed)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	if *trace {
		fmt.Fprint(stdout, r.Trace())
	} else {
		report(stdout, r, wall)
	}
	if *events != "" {
		f, ferr := os.Create(*events)
		if ferr != nil {
			return ferr
		}
		werr := export.WriteJSONL(f, r.Events())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("soak seed=%d: writing events: %w", *seed, werr)
		}
	}
	for _, v := range r.Violations {
		fmt.Fprintln(stderr, "oracle violation:", v)
	}
	if len(r.Violations) > 0 {
		return fmt.Errorf("soak seed=%d: %d oracle violations; first: %s (replay: %s)",
			*seed, len(r.Violations), r.Violations[0], replay)
	}
	return nil
}

// runDifferential executes the paired static-vs-dynamic differential
// oracle (internal/harness.RunPaired): the same seeded scenario runs
// under both deciders, each held to the scenario's bounds, payloads must
// stay byte-exact, and the dynamic policy's modeled corpus energy must
// never exceed the static policy's.
func runDifferential(sc harness.Scenario, stdout, stderr io.Writer) error {
	d, err := harness.RunPaired(sc)
	if err != nil {
		return err
	}
	saved := 0.0
	if d.StaticJ > 0 {
		saved = 100 * (1 - d.DynamicJ/d.StaticJ)
	}
	fmt.Fprintf(stdout, "differential seed=%d: corpus model energy static %.4g J, dynamic %.4g J (%.2f%% saved)\n",
		sc.Seed, d.StaticJ, d.DynamicJ, saved)
	for _, v := range d.Violations {
		fmt.Fprintln(stderr, "differential violation:", v)
	}
	if !d.OK() {
		return fmt.Errorf("differential seed=%d: %d violations; first: %s", sc.Seed, len(d.Violations), d.Violations[0])
	}
	return nil
}

// runCalib re-fits the energy model from a previously exported event
// stream and prints the calibration report; with -window it also prints
// the windowed (scheme, device) rollup table over virtual time.
func runCalib(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("calib", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		eventsPath = fs.String("events", "", "JSONL wide-event stream to calibrate (required)")
		window     = fs.Duration("window", 0, "also print windowed rollups at this width (virtual time)")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *eventsPath == "" {
		return fmt.Errorf("calib: -events FILE is required")
	}
	f, err := os.Open(*eventsPath)
	if err != nil {
		return err
	}
	evs, err := export.ReadJSONL(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("calib: reading %s: %w", *eventsPath, err)
	}
	if *window > 0 {
		a := agg.New(*window)
		for _, e := range evs {
			a.Observe(e)
		}
		fmt.Fprint(stdout, agg.Render(a.Snapshot()))
		fmt.Fprintln(stdout)
	}
	fits, err := calib.Calibrate(evs)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, calib.Render(fits))
	return nil
}
