package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/simnet"
)

// Compile lowers a validated spec into a runnable harness scenario at
// the given seed: the spec's scenario with the seed set and the link
// schedule lowered into Schedule. The spec never carries a seed: the
// whole point of the corpus is that any spec replays at any seed, so
// seeds arrive from the caller (golden-trace tests pin 1 and 2; CI adds a
// fresh one each run).
func (s *Spec) Compile(seed int64) harness.Scenario {
	sc := s.Scenario
	sc.Seed = seed
	sc.Schedule = compileSchedule(s.baseRate(), s.LinkAt, s.PowerSave)
	return sc
}

// baseRate is the medium rate in force before any linkat event — the
// spec's link line, or the harness's WaveLAN 11 Mb/s default.
func (s *Spec) baseRate() float64 {
	if s.Link.BytesPerSec > 0 {
		return s.Link.BytesPerSec
	}
	return simnet.WaveLAN11().BytesPerSec
}

// compileSchedule lowers linkat rate changes and power-save windows
// into the flat phase list simnet executes: walk every boundary instant
// in time order, evaluate the rate in force just after it (the last
// rate change at or before it, masked to zero inside any power-save
// window), and emit a phase wherever the rate actually changes. A
// validated spec always compiles to a schedule that ends un-paused,
// because windows are finite and every linkat rate is positive.
func compileSchedule(base float64, linkat []RateChange, ps []Window) []simnet.Phase {
	if len(linkat) == 0 && len(ps) == 0 {
		return nil
	}
	set := map[time.Duration]bool{}
	for _, rc := range linkat {
		set[rc.At] = true
	}
	for _, w := range ps {
		set[w.Start] = true
		set[w.Start+w.Dur] = true
	}
	bounds := make([]time.Duration, 0, len(set))
	for t := range set {
		bounds = append(bounds, t)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })

	rateAt := func(t time.Duration) float64 {
		for _, w := range ps {
			if t >= w.Start && t < w.Start+w.Dur {
				return 0
			}
		}
		r := base
		for _, rc := range linkat {
			if rc.At <= t {
				r = rc.Rate
			}
		}
		return r
	}

	var phases []simnet.Phase
	prev := base
	for _, t := range bounds {
		if r := rateAt(t); r != prev {
			phases = append(phases, simnet.Phase{Start: t, Rate: r})
			prev = r
		}
	}
	return phases
}

// Run compiles and executes the spec at seed. The compiled scenario
// carries the spec's expect bounds, so a breached bound lands in the
// report's violations with the structural oracles'.
func (s *Spec) Run(seed int64) (*harness.Report, error) {
	return harness.Run(s.Compile(seed))
}

// Load reads, parses and validates one spec file, and requires the
// scenario name to match the file's base name (sans .scn) so a golden
// trace can never be attributed to the wrong spec.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if want := strings.TrimSuffix(filepath.Base(path), ".scn"); s.Name != want {
		return nil, fmt.Errorf("%s: scenario name %q does not match file name %q", path, s.Name, want)
	}
	return s, nil
}
