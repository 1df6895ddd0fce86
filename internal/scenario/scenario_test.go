package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/decider"
	"repro/internal/harness"
	"repro/internal/simnet"
	"repro/internal/workload"
)

const fullSpec = `# every directive the grammar knows
scenario kitchen-sink
clients 4
fetches 6
fault 0.02
churn 3
maxretries 12
timeout 90s
decider dynamic
deadline standard
budget 25
link rate 180000 latency 5ms jitter 0.1
cluster nodes 2 replicas 1 hotk 8
peerlink rate 240000 latency 1ms jitter 0.05
linkat 200ms rate 600000
linkat 1s rate 180000
powersave 400ms 100ms
file notes.txt class mail size 4096
file blob.bin ratio 2.5 size 20000
expect minok 0.95
expect maxvirtual 10m
expect maxattempts 20
expect maxjoulespermb 500
`

func TestParseFullSpec(t *testing.T) {
	s, err := Parse([]byte(fullSpec))
	if err != nil {
		t.Fatal(err)
	}
	want := &Spec{
		Name: "kitchen-sink", Clients: 4, Fetches: 6, Fault: 0.02, Churn: 3,
		MaxRetries: 12, Timeout: 90 * time.Second,
		Decider: "dynamic", Deadline: decider.ClassStandard, Budget: 25,
		Link:      simnet.Link{BytesPerSec: 180000, Latency: 5 * time.Millisecond, JitterFrac: 0.1},
		Cluster:   ClusterSpec{Nodes: 2, Replicas: 1, HotK: 8},
		PeerLink:  simnet.Link{BytesPerSec: 240000, Latency: time.Millisecond, JitterFrac: 0.05},
		LinkAt:    []RateChange{{200 * time.Millisecond, 600000}, {time.Second, 180000}},
		PowerSave: []Window{{400 * time.Millisecond, 100 * time.Millisecond}},
		Files: []harness.CorpusEntry{
			{Name: "notes.txt", Class: workload.ClassMail, Size: 4096},
			{Name: "blob.bin", Ratio: 2.5, Size: 20000},
		},
		Expect: harness.Bounds{MinOKFrac: 0.95, MaxVirtual: 10 * time.Minute, MaxAttempts: 20, MaxJoulesPerMB: 500},
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("parsed\n%#v\nwant\n%#v", s, want)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("full spec invalid: %v", err)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	for _, src := range []string{
		fullSpec,
		"scenario tiny\n",
		"scenario x\nfile a.bin ratio 1.5 size 10\n# comment\nclients 3\n",
		"scenario neg\nclients -7\nfault -0.5\ntimeout -3s\n", // invalid but parseable
	} {
		s, err := Parse([]byte(src))
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		again, err := Parse(Format(s))
		if err != nil {
			t.Fatalf("reparse of %q: %v", Format(s), err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Errorf("round trip changed spec:\n%#v\n%#v", s, again)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"frobnicate 3\n", "unknown directive"},
		{"clients\n", "wants 1 argument"},
		{"clients three\n", "invalid syntax"},
		{"fault NaN\n", "non-finite"},
		{"fault +Inf\n", "non-finite"},
		{"timeout 5\n", "missing unit"},
		{"link rate\n", "dangling key"},
		{"link speed 3\n", "unknown key"},
		{"budget much\n", "invalid syntax"},
		{"deadline whenever\n", "unknown deadline class"},
		{"peerlink rate x\n", "invalid syntax"},
		{"linkat 1s speed 3\n", "linkat DUR rate F"},
		{"file\n", "file needs a name"},
		{"file x class warez size 9\n", "unknown content class"},
		{"expect maxfun 3\n", "unknown expect bound"},
	} {
		if _, err := Parse([]byte(tc.src)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) err = %v, want containing %q", tc.src, err, tc.want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Spec { return &Spec{Name: "ok", Clients: 2, Fetches: 2} }
	for name, breaks := range map[string]func(*Spec){
		"no name":       func(s *Spec) { s.Name = "" },
		"bad name":      func(s *Spec) { s.Name = "No Spaces Allowed" },
		"clients cap":   func(s *Spec) { s.Clients = maxClients + 1 },
		"fetch budget":  func(s *Spec) { s.Clients, s.Fetches = 1000, 1000 },
		"fault cap":     func(s *Spec) { s.Fault = 0.5 },
		"link rate low": func(s *Spec) { s.Link.BytesPerSec = 10 },
		"jitter range":  func(s *Spec) { s.Link = simnet.Link{BytesPerSec: 1e6, JitterFrac: 2} },
		"linkat order":  func(s *Spec) { s.LinkAt = []RateChange{{time.Second, 1e6}, {time.Second, 2e6}} },
		"linkat rate":   func(s *Spec) { s.LinkAt = []RateChange{{time.Second, 0}} },
		"ps overlap":    func(s *Spec) { s.PowerSave = []Window{{0, time.Second}, {500 * time.Millisecond, time.Second}} },
		"ps empty":      func(s *Spec) { s.PowerSave = []Window{{time.Second, 0}} },
		"file both": func(s *Spec) {
			s.Files = []harness.CorpusEntry{{Name: "x", Class: workload.ClassXML, Ratio: 2, Size: 10}}
		},
		"file neither": func(s *Spec) { s.Files = []harness.CorpusEntry{{Name: "x", Size: 10}} },
		"file dup": func(s *Spec) {
			s.Files = []harness.CorpusEntry{{Name: "x", Ratio: 2, Size: 10}, {Name: "x", Ratio: 3, Size: 10}}
		},
		"file size":       func(s *Spec) { s.Files = []harness.CorpusEntry{{Name: "x", Ratio: 2, Size: maxFileSize + 1}} },
		"ratio range":     func(s *Spec) { s.Files = []harness.CorpusEntry{{Name: "x", Ratio: 40, Size: 10}} },
		"minok range":     func(s *Spec) { s.Expect.MinOKFrac = 1.5 },
		"sched budget":    func(s *Spec) { s.LinkAt = make([]RateChange, maxSchedEvents+1) },
		"neg maxretries":  func(s *Spec) { s.MaxRetries = -1 },
		"timeout horizon": func(s *Spec) { s.Timeout = 2 * time.Hour },
		"bad decider":     func(s *Spec) { s.Decider = "oracle" },
		"bad deadline":    func(s *Spec) { s.Deadline = decider.ClassStrict + 1 },
		"budget range":    func(s *Spec) { s.Budget = maxBudgetJ + 1 },
		"neg budget":      func(s *Spec) { s.Budget = -1 },
		"neg fetches":     func(s *Spec) { s.Fetches = -1 },
		"churn range":     func(s *Spec) { s.Churn = 20000 },
		"link latency":    func(s *Spec) { s.Link = simnet.Link{BytesPerSec: 1e6, Latency: time.Minute} },
		"nodes cap":       func(s *Spec) { s.Cluster.Nodes = maxNodes + 1 },
		"orphan hotk":     func(s *Spec) { s.Cluster.HotK = 8 },
		"replicas range":  func(s *Spec) { s.Cluster = ClusterSpec{Nodes: 2, Replicas: 2} },
		"hotk range":      func(s *Spec) { s.Cluster = ClusterSpec{Nodes: 2, HotK: 5000} },
		"orphan peerlink": func(s *Spec) { s.PeerLink = simnet.Link{BytesPerSec: 1e6} },
		"peerlink rate":   func(s *Spec) { s.Cluster.Nodes = 2; s.PeerLink = simnet.Link{BytesPerSec: 10} },
		"peerlink lat":    func(s *Spec) { s.Cluster.Nodes = 2; s.PeerLink = simnet.Link{BytesPerSec: 1e6, Latency: time.Minute} },
		"peerlink jitter": func(s *Spec) { s.Cluster.Nodes = 2; s.PeerLink = simnet.Link{BytesPerSec: 1e6, JitterFrac: 2} },
		"linkat horizon":  func(s *Spec) { s.LinkAt = []RateChange{{maxHorizon + time.Second, 1e6}} },
		"file budget":     func(s *Spec) { s.Files = make([]harness.CorpusEntry, maxFiles+1) },
		"file name":       func(s *Spec) { s.Files = []harness.CorpusEntry{{Name: "bad name", Ratio: 2, Size: 10}} },
		"maxvirtual cap":  func(s *Spec) { s.Expect.MaxVirtual = maxHorizon + time.Hour },
		"maxattempts cap": func(s *Spec) { s.Expect.MaxAttempts = 2000 },
		"neg joules":      func(s *Spec) { s.Expect.MaxJoulesPerMB = -1 },
	} {
		s := base()
		breaks(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %#v", name, s)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base spec invalid: %v", err)
	}
}

// TestCompileSchedule: the boundary walk must mask linkat rates to zero
// inside power-save windows, restore the scheduled (not base) rate on
// resume, and merge boundaries that do not change the rate.
func TestCompileSchedule(t *testing.T) {
	got := compileSchedule(1000,
		[]RateChange{{200 * time.Millisecond, 500}, {600 * time.Millisecond, 2000}},
		[]Window{{400 * time.Millisecond, 300 * time.Millisecond}},
	)
	want := []simnet.Phase{
		{Start: 200 * time.Millisecond, Rate: 500},
		{Start: 400 * time.Millisecond, Rate: 0},
		// 600ms linkat lands inside the window: masked, no phase.
		{Start: 700 * time.Millisecond, Rate: 2000}, // resume at scheduled rate
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compiled %v, want %v", got, want)
	}
	if compileSchedule(1000, nil, nil) != nil {
		t.Fatal("empty schedule should compile to nil")
	}
	// A linkat at the base rate produces no phase at all.
	if got := compileSchedule(1000, []RateChange{{time.Second, 1000}}, nil); got != nil {
		t.Fatalf("no-op linkat compiled to %v", got)
	}
}

// TestCompile: a full spec lowers into the harness scenario it names.
func TestCompile(t *testing.T) {
	s, err := Parse([]byte(fullSpec))
	if err != nil {
		t.Fatal(err)
	}
	sc := s.Compile(42)
	if sc.Name != "kitchen-sink" || sc.Seed != 42 || sc.Clients != 4 || sc.FetchesPerClient != 6 {
		t.Fatalf("compiled shape wrong: %+v", sc)
	}
	if sc.Link.BytesPerSec != 180000 || sc.Link.Latency != 5*time.Millisecond {
		t.Fatalf("compiled link wrong: %+v", sc.Link)
	}
	if len(sc.Corpus) != 2 || sc.Corpus[0].Class != workload.ClassMail || sc.Corpus[1].Ratio != 2.5 {
		t.Fatalf("compiled corpus wrong: %+v", sc.Corpus)
	}
	if sc.Nodes != 2 || sc.Replicas != 1 || sc.HotK != 8 || sc.PeerLink.BytesPerSec != 240000 {
		t.Fatalf("compiled cluster wrong: nodes=%d replicas=%d hotk=%d peerlink=%+v",
			sc.Nodes, sc.Replicas, sc.HotK, sc.PeerLink)
	}
	if sc.Decider != "dynamic" || sc.DeadlineClass != uint8(decider.ClassStandard) || sc.BudgetJ != 25 {
		t.Fatalf("compiled decider wrong: decider=%q class=%d budget=%g",
			sc.Decider, sc.DeadlineClass, sc.BudgetJ)
	}
	if len(sc.Schedule) == 0 {
		t.Fatal("schedule did not compile")
	}
	if sc.Bounds != s.Expect || sc.Bounds.MinOKFrac != 0.95 || sc.Bounds.MaxAttempts != 20 {
		t.Fatalf("bounds wrong: %+v", sc.Bounds)
	}
}

// impossibleSpec is a clean little fleet with a 1 ns virtual-time budget:
// every run of it breaches exactly one bound.
func impossibleSpec(t *testing.T) *Spec {
	t.Helper()
	s := &Spec{Name: "impossible", Clients: 2, Fetches: 2,
		Files:  []harness.CorpusEntry{{Name: "a.txt", Class: workload.ClassMail, Size: 2000}},
		Expect: harness.Bounds{MaxVirtual: time.Nanosecond}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecRunBounds: Run folds breached expect bounds into Violations.
// An impossible virtual-time budget must trip; the structural oracles
// must stay green.
func TestSpecRunBounds(t *testing.T) {
	rep, err := impossibleSpec(t).Run(5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if strings.HasPrefix(v, "bounds:") {
			found = true
		} else {
			t.Errorf("structural oracle violation: %s", v)
		}
	}
	if !found {
		t.Fatal("1ns budget did not trip the maxvirtual bound")
	}
}

// TestRunPairedChecksBounds: the differential holds both of its runs to
// the compiled spec's bounds — the breach is reported once for the static
// run and once for the dynamic one. (When the bounds were appended by
// Spec.Run after the fact, RunPaired reported neither.)
func TestRunPairedChecksBounds(t *testing.T) {
	d, err := harness.RunPaired(impossibleSpec(t).Compile(5))
	if err != nil {
		t.Fatal(err)
	}
	breaches := map[string]int{}
	for _, v := range d.Violations {
		run, rest, _ := strings.Cut(v, " run: ")
		if !strings.HasPrefix(rest, "bounds: run took") {
			t.Errorf("unexpected violation: %s", v)
			continue
		}
		breaches[run]++
	}
	if breaches["static"] != 1 || breaches["dynamic"] != 1 || len(breaches) != 2 {
		t.Fatalf("maxvirtual breaches per run = %v, want static 1 and dynamic 1", breaches)
	}
}

// TestClassTokens: the grammar must name every Table 3 content class
// exactly once, both directions.
func TestClassTokens(t *testing.T) {
	for c := workload.ClassXML; c <= workload.ClassScript; c++ {
		tok, ok := classToken[c]
		if !ok {
			t.Errorf("class %v has no grammar token", c)
			continue
		}
		if classTokens[tok] != c {
			t.Errorf("token %q maps to %v, not %v", tok, classTokens[tok], c)
		}
	}
	if len(classTokens) != int(workload.ClassScript-workload.ClassXML)+1 {
		t.Errorf("%d tokens for %d classes", len(classTokens), int(workload.ClassScript-workload.ClassXML)+1)
	}
}
