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
// The soak subcommand replays a deterministic multi-client scenario on the
// virtual testbed (internal/harness) and checks every invariant oracle:
//
//	energysim soak -seed 42
//	energysim soak -seed 42 -clients 4 -fetches 10 -fault 0.02 -trace
//	energysim soak -scenario testdata/scenarios/rate-cliff.scn -seed 1 -trace
//
// With -scenario the soak shape comes from a declarative spec file
// (internal/scenario) — fleet size, link schedule, workload corpus and
// expected-outcome bounds — and the ad-hoc shape flags are ignored.
// The same seed always produces a byte-identical trace, so any soak
// failure CI reports can be replayed locally from its printed seed.
// With -events FILE the soak also writes its canonical wide-event stream
// as JSONL (same determinism guarantee), and -calib prints the post-run
// calibration report: energy-model coefficients re-fitted from that
// telemetry against the paper's Table 1.
//
// -decider selects the selective-mode policy (static Eq. 6 or the
// queue-aware dynamic decider), -deadline and -budget declare the
// fleet's request attributes, and -differential runs the paired
// static-vs-dynamic oracle instead of a single run:
//
//	energysim soak -seed 1 -decider dynamic -deadline standard -budget 50
//	energysim soak -seed 1 -differential
//
// The calib subcommand fits a previously exported event stream:
//
//	energysim calib -events soak.jsonl
//	energysim calib -events soak.jsonl -window 10s
package main

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/calib"
	"repro/internal/decider"
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
		return runSoak(argv[1:])
	}
	if len(argv) > 0 && argv[0] == "calib" {
		return runCalib(argv[1:])
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
			if !e.Data {
				ids = append(ids, e.ID)
			}
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
	b.WriteString("experiment ids (all runs every one but the CSV dumps):")
	for _, e := range experiment.Experiments() {
		fmt.Fprintf(&b, "\n  %-20s%s", e.ID, e.Title)
	}
	return b.String()
}

// runSoak runs one seeded soak scenario on the virtual testbed, prints
// either the full canonical trace or a digest summary, and fails (exit 1)
// if any invariant oracle or scenario bound is violated — the error
// names the first violation so CI logs lead with the actual failure,
// not just a count.
func runSoak(argv []string) error {
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "scenario seed; same seed => byte-identical trace")
		specPath = fs.String("scenario", "", "declarative scenario spec file; overrides the shape flags")
		clients  = fs.Int("clients", 10, "concurrent clients")
		fetches  = fs.Int("fetches", 50, "fetches per client")
		fault    = fs.Float64("fault", 0.01, "per-operation fault probability (fragment/reset/truncate/bit-flip)")
		churn    = fs.Int("churn", 100, "cache-churn re-registrations over the run (0 = off)")
		trace    = fs.Bool("trace", false, "print the full canonical trace instead of the digest")
		events   = fs.String("events", "", "write the canonical wide-event stream as JSONL to this file")
		calibOut = fs.Bool("calib", false, "print the post-run calibration report (model re-fit from telemetry)")
		deciderP = fs.String("decider", "", "selective-mode decision policy: static (default, Eq. 6) or dynamic")
		deadline = fs.String("deadline", "", "fleet deadline class: none, relaxed, standard or strict")
		budget   = fs.Float64("budget", 0, "per-client advisory energy budget in joules (0 = undeclared)")
		diff     = fs.Bool("differential", false, "run the paired static-vs-dynamic differential oracle instead of a single run")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *deciderP != "" && *deciderP != "static" && *deciderP != "dynamic" {
		return fmt.Errorf("soak: -decider %q: want static or dynamic", *deciderP)
	}
	class, ok := decider.ParseClass(*deadline)
	if !ok {
		return fmt.Errorf("soak: -deadline %q: want none, relaxed, standard or strict", *deadline)
	}

	if *diff {
		return runDifferential(*specPath, *seed, *clients, *fetches, *fault, *churn, uint8(class), *budget)
	}

	var (
		r      *harness.Report
		err    error
		replay string
	)
	if *specPath != "" {
		spec, serr := scenario.Load(*specPath)
		if serr != nil {
			return serr
		}
		r, err = spec.Run(*seed)
		replay = fmt.Sprintf("energysim soak -scenario %s -seed %d -trace", *specPath, *seed)
	} else {
		sc := harness.Default(*seed)
		sc.Clients = *clients
		sc.FetchesPerClient = *fetches
		sc.FaultRate = *fault
		sc.Churn = *churn
		sc.Decider = *deciderP
		sc.DeadlineClass = uint8(class)
		sc.BudgetJ = *budget
		r, err = harness.Run(sc)
		replay = fmt.Sprintf("energysim soak -seed %d -clients %d -fetches %d -fault %g -churn %d -trace",
			*seed, *clients, *fetches, *fault, *churn)
		if *deciderP != "" || *deadline != "" || *budget != 0 {
			replay += fmt.Sprintf(" -decider %s -deadline %s -budget %g", *deciderP, *deadline, *budget)
		}
	}
	if err != nil {
		return err
	}
	tr := r.Trace()
	if *trace {
		fmt.Print(tr)
	} else {
		ok, retried := 0, 0
		for _, rec := range r.Records {
			if rec.Err == "" {
				ok++
			}
			if rec.Stats.Attempts > 1 {
				retried++
			}
		}
		sum := sha256.Sum256([]byte(tr))
		fmt.Printf("soak seed=%d: %d fetches (%d ok, %d retried) in %s virtual; trace sha256=%x\n",
			*seed, len(r.Records), ok, retried, r.Elapsed, sum[:8])
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
	if *calibOut {
		fits, cerr := calib.Calibrate(r.Events())
		if cerr != nil {
			return fmt.Errorf("soak seed=%d: %w", *seed, cerr)
		}
		fmt.Print(calib.Render(fits))
	}
	for _, v := range r.Violations {
		fmt.Fprintln(os.Stderr, "oracle violation:", v)
	}
	if len(r.Violations) > 0 {
		return fmt.Errorf("soak seed=%d: %d oracle violations; first: %s (replay: %s)",
			*seed, len(r.Violations), r.Violations[0], replay)
	}
	return nil
}

// runDifferential executes the paired static-vs-dynamic differential
// oracle (internal/harness.RunPaired): the same seeded scenario runs
// under both deciders, payloads must stay byte-exact, and the dynamic
// policy's modeled corpus energy must never exceed the static policy's.
func runDifferential(specPath string, seed int64, clients, fetches int, fault float64, churn int, class uint8, budget float64) error {
	var sc harness.Scenario
	if specPath != "" {
		spec, err := scenario.Load(specPath)
		if err != nil {
			return err
		}
		sc = spec.Compile(seed)
	} else {
		sc = harness.Default(seed)
		sc.Clients = clients
		sc.FetchesPerClient = fetches
		sc.FaultRate = fault
		sc.Churn = churn
		sc.DeadlineClass = class
		sc.BudgetJ = budget
	}
	d, err := harness.RunPaired(sc)
	if err != nil {
		return err
	}
	saved := 0.0
	if d.StaticJ > 0 {
		saved = 100 * (1 - d.DynamicJ/d.StaticJ)
	}
	fmt.Printf("differential seed=%d: corpus model energy static %.4g J, dynamic %.4g J (%.2f%% saved)\n",
		seed, d.StaticJ, d.DynamicJ, saved)
	for _, v := range d.Violations {
		fmt.Fprintln(os.Stderr, "differential violation:", v)
	}
	if !d.OK() {
		return fmt.Errorf("differential seed=%d: %d violations; first: %s", seed, len(d.Violations), d.Violations[0])
	}
	return nil
}

// runCalib re-fits the energy model from a previously exported event
// stream and prints the calibration report; with -window it also prints
// the windowed (scheme, device) rollup table over virtual time.
func runCalib(argv []string) error {
	fs := flag.NewFlagSet("calib", flag.ContinueOnError)
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
		fmt.Print(agg.Render(a.Snapshot()))
		fmt.Println()
	}
	fits, err := calib.Calibrate(evs)
	if err != nil {
		return err
	}
	fmt.Print(calib.Render(fits))
	return nil
}
