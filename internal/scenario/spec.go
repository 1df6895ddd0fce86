// Package scenario turns declarative on-disk spec files into seeded
// soak runs over the deterministic testbed. A spec pins a fleet shape
// (clients × fetches), a link schedule (rate cliffs, power-save
// windows), a workload corpus (Table 3 content classes or numeric
// compressibility targets), and the expected-outcome bounds the run
// must honor — the way elastic-package lays out data-driven system
// tests as a corpus of self-describing directories. Compiled scenarios
// run through internal/harness, so every spec inherits the invariant
// oracles and the canonical-trace replay guarantee: one golden trace
// per (spec, seed) is committed under testdata/scenarios/golden and CI
// diffs every run against it.
package scenario

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/decider"
	"repro/internal/harness"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Spec is one parsed scenario file. The zero value of every field means
// "not specified": Compile leaves harness defaults in charge, and
// Format omits the line. Where the harness already has a type for a
// directive (link, file, expect) the spec holds that type, so Compile
// copies values rather than translating them. Parse and Format are exact
// inverses over any successfully parsed spec — the fuzz target pins
// Parse(Format(spec)) == spec — so specs can be rewritten losslessly.
type Spec struct {
	// Name labels the scenario; LoadDir requires it to match the file's
	// base name so golden traces can never be attributed to the wrong
	// spec.
	Name string
	// Clients and Fetches set the fleet shape (harness defaults 10×50).
	Clients int
	Fetches int
	// Fault is the per-I/O-call probability of each injected fault mode.
	Fault float64
	// Churn is how many mid-run cache-dropping re-registrations the
	// churn actor performs.
	Churn int
	// MaxRetries and Timeout are each client's per-fetch retry budget
	// and per-attempt virtual deadline.
	MaxRetries int
	Timeout    time.Duration
	// Decider selects the server's selective-mode decision policy:
	// "static" (the paper's Equation 6, also the "" default) or "dynamic"
	// (the queue-aware, link-adaptive decider of internal/decider).
	Decider string
	// Deadline is the fleet's declared deadline class, spelled as
	// decider.ParseClass reads it; the zero value (ClassNone) leaves
	// requests undeclared. Budget is each client's advisory energy budget
	// in joules (0 = undeclared). Both ride the extended GET op, so a spec
	// setting neither replays byte-identically to the pre-attribute grammar.
	Deadline decider.Class
	Budget   float64
	// Link is the base shared medium (`link rate R latency D jitter J`);
	// the zero value selects the paper's 11 Mb/s WaveLAN shape. The spec
	// never sets Link.Seed: every dial derives its own.
	Link simnet.Link
	// LinkAt scripts rate changes at virtual-time offsets; PowerSave
	// scripts windows where the medium pauses entirely. Together they
	// compile into the simnet link schedule.
	LinkAt    []RateChange
	PowerSave []Window
	// Cluster, when Nodes > 0, runs the scenario against an N-node
	// consistent-hash proxy ring instead of the single server; the zero
	// value keeps the single-server testbed.
	Cluster ClusterSpec
	// PeerLink shapes the inter-node backhaul of a cluster scenario; the
	// zero value selects the harness's 100 Mb/s wired default.
	PeerLink simnet.Link
	// Files is the workload corpus, one `file` line each: exactly one of
	// Class / Ratio describes a file's content. Empty keeps the harness's
	// built-in nine-file mix.
	Files []harness.CorpusEntry
	// Expect are the outcome bounds (`expect` lines) the run is held to.
	Expect harness.Bounds
}

// ClusterSpec is the ring shape of a cluster scenario: node count, how
// many ring successors each hot key replicates to, and the size of each
// node's top-K hot-key admission sketch.
type ClusterSpec struct {
	Nodes    int
	Replicas int
	HotK     int
}

// RateChange reschedules the medium to Rate bytes/sec at virtual time At.
type RateChange struct {
	At   time.Duration
	Rate float64
}

// Window is a power-save pause: the medium carries nothing from Start
// for Dur.
type Window struct {
	Start time.Duration
	Dur   time.Duration
}

// classTokens maps the spec grammar's one-word class names to Table 3
// content classes. Kept in sync with workload.Class by TestClassTokens.
var classTokens = map[string]workload.Class{
	"xml":        workload.ClassXML,
	"html":       workload.ClassHTML,
	"weblog":     workload.ClassWebLog,
	"tarhtml":    workload.ClassTarHTML,
	"source":     workload.ClassSource,
	"postscript": workload.ClassPostscript,
	"pdf":        workload.ClassPDF,
	"binary":     workload.ClassBinary,
	"classfile":  workload.ClassClassFile,
	"audio":      workload.ClassAudio,
	"graphic":    workload.ClassGraphic,
	"media":      workload.ClassMedia,
	"random":     workload.ClassRandom,
	"mail":       workload.ClassMail,
	"script":     workload.ClassScript,
}

// classToken is the reverse map, for Format.
var classToken = func() map[workload.Class]string {
	m := make(map[workload.Class]string, len(classTokens))
	for tok, c := range classTokens {
		m[c] = tok
	}
	return m
}()

// Parse reads the line-oriented spec grammar. Lines are split on
// whitespace; blank lines and lines whose first character is '#' are
// skipped. Later lines override earlier ones for scalar keys; list keys
// (file, linkat, powersave) append in order. Parse performs only
// syntactic checks — range and budget caps live in Validate — but it
// never panics on any input and never accepts a value Format cannot
// reproduce (NaN is rejected so round-tripping stays exact).
func Parse(data []byte) (*Spec, error) {
	s := &Spec{}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		var err error
		switch f[0] {
		case "scenario":
			err = wantArgs(f, 1, func() error { s.Name = f[1]; return nil })
		case "clients":
			err = wantArgs(f, 1, func() error { s.Clients, err = pInt(f[1]); return err })
		case "fetches":
			err = wantArgs(f, 1, func() error { s.Fetches, err = pInt(f[1]); return err })
		case "fault":
			err = wantArgs(f, 1, func() error { s.Fault, err = pFloat(f[1]); return err })
		case "churn":
			err = wantArgs(f, 1, func() error { s.Churn, err = pInt(f[1]); return err })
		case "maxretries":
			err = wantArgs(f, 1, func() error { s.MaxRetries, err = pInt(f[1]); return err })
		case "timeout":
			err = wantArgs(f, 1, func() error { s.Timeout, err = pDur(f[1]); return err })
		case "decider":
			err = wantArgs(f, 1, func() error { s.Decider = f[1]; return nil })
		case "deadline":
			err = wantArgs(f, 1, func() error {
				c, ok := decider.ParseClass(f[1])
				if !ok {
					return fmt.Errorf("unknown deadline class %q", f[1])
				}
				s.Deadline = c
				return nil
			})
		case "budget":
			err = wantArgs(f, 1, func() error { s.Budget, err = pFloat(f[1]); return err })
		case "link":
			err = parseLink(f[1:], &s.Link)
		case "cluster":
			err = parsePairs(f[1:], map[string]func(string) error{
				"nodes":    func(v string) (e error) { s.Cluster.Nodes, e = pInt(v); return },
				"replicas": func(v string) (e error) { s.Cluster.Replicas, e = pInt(v); return },
				"hotk":     func(v string) (e error) { s.Cluster.HotK, e = pInt(v); return },
			})
		case "peerlink":
			err = parseLink(f[1:], &s.PeerLink)
		case "linkat":
			err = wantArgs(f, 3, func() error {
				if f[2] != "rate" {
					return fmt.Errorf("want `linkat DUR rate F`, got %q", f[2])
				}
				var rc RateChange
				if rc.At, err = pDur(f[1]); err != nil {
					return err
				}
				if rc.Rate, err = pFloat(f[3]); err != nil {
					return err
				}
				s.LinkAt = append(s.LinkAt, rc)
				return nil
			})
		case "powersave":
			err = wantArgs(f, 2, func() error {
				var w Window
				if w.Start, err = pDur(f[1]); err != nil {
					return err
				}
				if w.Dur, err = pDur(f[2]); err != nil {
					return err
				}
				s.PowerSave = append(s.PowerSave, w)
				return nil
			})
		case "file":
			if len(f) < 2 {
				err = fmt.Errorf("file needs a name")
				break
			}
			fs := harness.CorpusEntry{Name: f[1]}
			err = parsePairs(f[2:], map[string]func(string) error{
				"class": func(v string) error {
					c, ok := classTokens[v]
					if !ok {
						return fmt.Errorf("unknown content class %q", v)
					}
					fs.Class = c
					return nil
				},
				"ratio": func(v string) (e error) { fs.Ratio, e = pFloat(v); return },
				"size":  func(v string) (e error) { fs.Size, e = pInt(v); return },
			})
			if err == nil {
				s.Files = append(s.Files, fs)
			}
		case "expect":
			err = wantArgs(f, 2, func() error {
				switch f[1] {
				case "minok":
					s.Expect.MinOKFrac, err = pFloat(f[2])
				case "maxvirtual":
					s.Expect.MaxVirtual, err = pDur(f[2])
				case "maxattempts":
					s.Expect.MaxAttempts, err = pInt(f[2])
				case "maxjoulespermb":
					s.Expect.MaxJoulesPerMB, err = pFloat(f[2])
				default:
					err = fmt.Errorf("unknown expect bound %q", f[1])
				}
				return err
			})
		default:
			err = fmt.Errorf("unknown directive %q", f[0])
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
	}
	return s, nil
}

// Format renders s in the spec grammar, emitting set fields in a fixed
// order. Parse(Format(s)) reproduces s exactly for any parsed spec.
func Format(s *Spec) []byte {
	var b strings.Builder
	if s.Name != "" {
		fmt.Fprintf(&b, "scenario %s\n", s.Name)
	}
	if s.Clients != 0 {
		fmt.Fprintf(&b, "clients %d\n", s.Clients)
	}
	if s.Fetches != 0 {
		fmt.Fprintf(&b, "fetches %d\n", s.Fetches)
	}
	if s.Fault != 0 {
		fmt.Fprintf(&b, "fault %s\n", ff(s.Fault))
	}
	if s.Churn != 0 {
		fmt.Fprintf(&b, "churn %d\n", s.Churn)
	}
	if s.MaxRetries != 0 {
		fmt.Fprintf(&b, "maxretries %d\n", s.MaxRetries)
	}
	if s.Timeout != 0 {
		fmt.Fprintf(&b, "timeout %s\n", s.Timeout)
	}
	if s.Decider != "" {
		fmt.Fprintf(&b, "decider %s\n", s.Decider)
	}
	if s.Deadline != decider.ClassNone {
		fmt.Fprintf(&b, "deadline %s\n", s.Deadline)
	}
	if s.Budget != 0 {
		fmt.Fprintf(&b, "budget %s\n", ff(s.Budget))
	}
	formatLink(&b, "link", s.Link)
	if s.Cluster != (ClusterSpec{}) {
		fmt.Fprintf(&b, "cluster nodes %d replicas %d hotk %d\n", s.Cluster.Nodes, s.Cluster.Replicas, s.Cluster.HotK)
	}
	formatLink(&b, "peerlink", s.PeerLink)
	for _, rc := range s.LinkAt {
		fmt.Fprintf(&b, "linkat %s rate %s\n", rc.At, ff(rc.Rate))
	}
	for _, w := range s.PowerSave {
		fmt.Fprintf(&b, "powersave %s %s\n", w.Start, w.Dur)
	}
	for _, fs := range s.Files {
		fmt.Fprintf(&b, "file %s", fs.Name)
		if fs.Class != 0 {
			fmt.Fprintf(&b, " class %s", classToken[fs.Class])
		}
		if fs.Ratio != 0 {
			fmt.Fprintf(&b, " ratio %s", ff(fs.Ratio))
		}
		if fs.Size != 0 {
			fmt.Fprintf(&b, " size %d", fs.Size)
		}
		b.WriteByte('\n')
	}
	if s.Expect.MinOKFrac != 0 {
		fmt.Fprintf(&b, "expect minok %s\n", ff(s.Expect.MinOKFrac))
	}
	if s.Expect.MaxVirtual != 0 {
		fmt.Fprintf(&b, "expect maxvirtual %s\n", s.Expect.MaxVirtual)
	}
	if s.Expect.MaxAttempts != 0 {
		fmt.Fprintf(&b, "expect maxattempts %d\n", s.Expect.MaxAttempts)
	}
	if s.Expect.MaxJoulesPerMB != 0 {
		fmt.Fprintf(&b, "expect maxjoulespermb %s\n", ff(s.Expect.MaxJoulesPerMB))
	}
	return []byte(b.String())
}

// nameRE bounds scenario and file names to tokens that are safe as
// filenames, trace-header fields and registry label values.
var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)

// Validation caps. These are deliberately tight: every committed spec
// replays in CI at multiple seeds, the fuzzer drives Validate on
// arbitrary parsed specs, and a spec is a test fixture, not a
// production config — so budgets are sized for "largest soak worth
// gating on", and the 10k-client load-generation shape stays inside
// them.
const (
	maxFiles       = 64
	maxFileSize    = 4 << 20
	maxClients     = 20000
	maxTotalFetch  = 200000
	maxFault       = 0.2
	minRatio       = 1.02
	maxRatio       = 16.0
	minRate        = 1e3
	maxRate        = 1e9
	maxSchedEvents = 32
	maxHorizon     = 24 * time.Hour
	maxNodes       = 16
	maxBudgetJ     = 1e6
)

// Validate checks ranges, budgets and cross-field rules. A valid spec
// is guaranteed to compile into a runnable harness scenario: in
// particular the link schedule always ends un-paused, so no run can
// park its writers forever.
func (s *Spec) Validate() error {
	if !nameRE.MatchString(s.Name) {
		return fmt.Errorf("scenario name %q: want %s", s.Name, nameRE)
	}
	if s.Clients < 0 || s.Clients > maxClients {
		return fmt.Errorf("clients %d outside [0, %d]", s.Clients, maxClients)
	}
	if s.Fetches < 0 {
		return fmt.Errorf("fetches %d negative", s.Fetches)
	}
	ec, ef := s.Clients, s.Fetches
	if ec == 0 {
		ec = 10
	}
	if ef == 0 {
		ef = 50
	}
	if ec*ef > maxTotalFetch {
		return fmt.Errorf("%d clients × %d fetches = %d total, budget is %d", ec, ef, ec*ef, maxTotalFetch)
	}
	if s.Fault < 0 || s.Fault > maxFault {
		return fmt.Errorf("fault %g outside [0, %g]", s.Fault, maxFault)
	}
	if s.Churn < 0 || s.Churn > 10000 {
		return fmt.Errorf("churn %d outside [0, 10000]", s.Churn)
	}
	if s.MaxRetries < 0 || s.MaxRetries > 100 {
		return fmt.Errorf("maxretries %d outside [0, 100]", s.MaxRetries)
	}
	if s.Timeout < 0 || s.Timeout > time.Hour {
		return fmt.Errorf("timeout %s outside [0, 1h]", s.Timeout)
	}
	if s.Decider != "" && s.Decider != "static" && s.Decider != "dynamic" {
		return fmt.Errorf("decider %q: want static or dynamic", s.Decider)
	}
	if s.Deadline > decider.ClassStrict {
		return fmt.Errorf("deadline class %d: want none/relaxed/standard/strict", s.Deadline)
	}
	if s.Budget < 0 || s.Budget > maxBudgetJ {
		return fmt.Errorf("budget %g outside [0, %g]", s.Budget, float64(maxBudgetJ))
	}
	if err := validateLink("link", s.Link); err != nil {
		return err
	}
	if s.Cluster.Nodes < 0 || s.Cluster.Nodes > maxNodes {
		return fmt.Errorf("cluster nodes %d outside [0, %d]", s.Cluster.Nodes, maxNodes)
	}
	if s.Cluster.Nodes == 0 && s.Cluster != (ClusterSpec{}) {
		return fmt.Errorf("cluster replicas/hotk need nodes > 0")
	}
	if s.Cluster.Nodes > 0 {
		if s.Cluster.Replicas < 0 || s.Cluster.Replicas >= s.Cluster.Nodes {
			return fmt.Errorf("cluster replicas %d outside [0, nodes-1=%d]", s.Cluster.Replicas, s.Cluster.Nodes-1)
		}
		if s.Cluster.HotK < 0 || s.Cluster.HotK > 4096 {
			return fmt.Errorf("cluster hotk %d outside [0, 4096]", s.Cluster.HotK)
		}
	}
	if s.PeerLink != (simnet.Link{}) && s.Cluster.Nodes == 0 {
		return fmt.Errorf("peerlink needs cluster nodes > 0")
	}
	if err := validateLink("peerlink", s.PeerLink); err != nil {
		return err
	}
	if len(s.LinkAt)+len(s.PowerSave) > maxSchedEvents {
		return fmt.Errorf("%d schedule events, budget is %d", len(s.LinkAt)+len(s.PowerSave), maxSchedEvents)
	}
	for i, rc := range s.LinkAt {
		if rc.At < 0 || rc.At > maxHorizon {
			return fmt.Errorf("linkat[%d] at %s outside [0, %s]", i, rc.At, maxHorizon)
		}
		if i > 0 && rc.At <= s.LinkAt[i-1].At {
			return fmt.Errorf("linkat[%d] at %s not after linkat[%d] at %s", i, rc.At, i-1, s.LinkAt[i-1].At)
		}
		if rc.Rate < minRate || rc.Rate > maxRate {
			return fmt.Errorf("linkat[%d] rate %g outside [%g, %g]", i, rc.Rate, minRate, maxRate)
		}
	}
	for i, w := range s.PowerSave {
		if w.Start < 0 || w.Dur <= 0 || w.Start+w.Dur > maxHorizon {
			return fmt.Errorf("powersave[%d] [%s, +%s] outside (0, %s]", i, w.Start, w.Dur, maxHorizon)
		}
		if i > 0 && w.Start < s.PowerSave[i-1].Start+s.PowerSave[i-1].Dur {
			return fmt.Errorf("powersave[%d] at %s overlaps powersave[%d]", i, w.Start, i-1)
		}
	}
	if len(s.Files) > maxFiles {
		return fmt.Errorf("%d files, budget is %d", len(s.Files), maxFiles)
	}
	seen := map[string]bool{}
	for i, fs := range s.Files {
		if !nameRE.MatchString(fs.Name) {
			return fmt.Errorf("file[%d] name %q: want %s", i, fs.Name, nameRE)
		}
		if seen[fs.Name] {
			return fmt.Errorf("file[%d] duplicate name %q", i, fs.Name)
		}
		seen[fs.Name] = true
		if (fs.Class == 0) == (fs.Ratio == 0) {
			return fmt.Errorf("file %q: want exactly one of class / ratio", fs.Name)
		}
		if fs.Ratio != 0 && (fs.Ratio < minRatio || fs.Ratio > maxRatio) {
			return fmt.Errorf("file %q ratio %g outside [%g, %g]", fs.Name, fs.Ratio, minRatio, maxRatio)
		}
		if fs.Size < 1 || fs.Size > maxFileSize {
			return fmt.Errorf("file %q size %d outside [1, %d]", fs.Name, fs.Size, maxFileSize)
		}
	}
	if s.Expect.MinOKFrac < 0 || s.Expect.MinOKFrac > 1 {
		return fmt.Errorf("expect minok %g outside [0, 1]", s.Expect.MinOKFrac)
	}
	if s.Expect.MaxVirtual < 0 || s.Expect.MaxVirtual > maxHorizon {
		return fmt.Errorf("expect maxvirtual %s outside [0, %s]", s.Expect.MaxVirtual, maxHorizon)
	}
	if s.Expect.MaxAttempts < 0 || s.Expect.MaxAttempts > 1000 {
		return fmt.Errorf("expect maxattempts %d outside [0, 1000]", s.Expect.MaxAttempts)
	}
	if s.Expect.MaxJoulesPerMB < 0 {
		return fmt.Errorf("expect maxjoulespermb %g negative", s.Expect.MaxJoulesPerMB)
	}
	return nil
}

// parseLink, formatLink and validateLink are the one grammar of the
// `link` and `peerlink` lines: `rate` is BytesPerSec, `jitter` JitterFrac.
func parseLink(f []string, l *simnet.Link) error {
	return parsePairs(f, map[string]func(string) error{
		"rate":    func(v string) (e error) { l.BytesPerSec, e = pFloat(v); return },
		"latency": func(v string) (e error) { l.Latency, e = pDur(v); return },
		"jitter":  func(v string) (e error) { l.JitterFrac, e = pFloat(v); return },
	})
}

func formatLink(b *strings.Builder, key string, l simnet.Link) {
	if l != (simnet.Link{}) {
		fmt.Fprintf(b, "%s rate %s latency %s jitter %s\n", key, ff(l.BytesPerSec), l.Latency, ff(l.JitterFrac))
	}
}

func validateLink(key string, l simnet.Link) error {
	switch {
	case l == (simnet.Link{}):
		return nil
	case l.BytesPerSec < minRate || l.BytesPerSec > maxRate:
		return fmt.Errorf("%s rate %g outside [%g, %g]", key, l.BytesPerSec, minRate, maxRate)
	case l.Latency < 0 || l.Latency > 10*time.Second:
		return fmt.Errorf("%s latency %s outside [0, 10s]", key, l.Latency)
	case l.JitterFrac < 0 || l.JitterFrac > 1:
		return fmt.Errorf("%s jitter %g outside [0, 1]", key, l.JitterFrac)
	}
	return nil
}

func wantArgs(f []string, n int, apply func() error) error {
	if len(f) != n+1 {
		return fmt.Errorf("%s wants %d argument(s), got %d", f[0], n, len(f)-1)
	}
	return apply()
}

// parsePairs consumes `key value` pairs in any order. An empty list is
// allowed — explicit zeros parse to a zero struct that Format renders
// with no pairs at all, and the round-trip contract must hold for it;
// Validate is what rejects meaningless entries.
func parsePairs(f []string, keys map[string]func(string) error) error {
	if len(f)%2 != 0 {
		return fmt.Errorf("dangling key %q", f[len(f)-1])
	}
	for i := 0; i < len(f); i += 2 {
		apply, ok := keys[f[i]]
		if !ok {
			ks := make([]string, 0, len(keys))
			for k := range keys {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			return fmt.Errorf("unknown key %q, want one of %s", f[i], strings.Join(ks, "/"))
		}
		if err := apply(f[i+1]); err != nil {
			return err
		}
	}
	return nil
}

func pInt(tok string) (int, error) {
	return strconv.Atoi(tok)
}

func pFloat(tok string) (float64, error) {
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, err
	}
	// NaN breaks the Parse/Format round-trip (NaN != NaN) and Inf is
	// never a meaningful knob value; reject both at the syntax layer.
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value %q", tok)
	}
	return v, nil
}

func pDur(tok string) (time.Duration, error) {
	return time.ParseDuration(tok)
}

// ff formats a float the way Parse reads it back exactly.
func ff(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
