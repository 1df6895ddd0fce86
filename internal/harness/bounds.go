package harness

import (
	"fmt"
	"time"
)

// Bounds are the expected-outcome oracles a declarative scenario spec
// pins (its expect lines) alongside the structural invariants runOracles
// always checks: how well the run must have gone, not just that the
// ledgers reconcile. The zero value of every field disables that check.
type Bounds struct {
	// MinOKFrac is the minimum fraction of fetches that must succeed.
	MinOKFrac float64
	// MaxVirtual caps the run's virtual elapsed time — the spec's budget
	// for the whole schedule on its scripted link.
	MaxVirtual time.Duration
	// MaxAttempts caps any single fetch's connection attempts.
	MaxAttempts int
	// MaxJoulesPerMB caps the fleet's modeled energy per raw megabyte
	// delivered, summed over every successful fetch's span.
	MaxJoulesPerMB float64
}

// checkBounds evaluates b against the finished run and returns one
// violation string per breached bound, in the same "oracle: detail"
// shape runOracles uses. It does not mutate the report; Run appends the
// result to Violations.
func (r *Report) checkBounds(b Bounds) []string {
	var out []string
	if b == (Bounds{}) {
		return out
	}
	ok := 0
	worstAttempts, worstClient, worstIndex := 0, 0, 0
	for _, rec := range r.Records {
		if rec.Err == "" {
			ok++
		}
		if rec.Stats.Attempts > worstAttempts {
			worstAttempts, worstClient, worstIndex = rec.Stats.Attempts, rec.Client, rec.Index
		}
	}
	if b.MinOKFrac > 0 && len(r.Records) > 0 {
		frac := float64(ok) / float64(len(r.Records))
		if frac < b.MinOKFrac {
			out = append(out, fmt.Sprintf("bounds: %d/%d fetches ok (%.4f), spec requires >= %.4f",
				ok, len(r.Records), frac, b.MinOKFrac))
		}
	}
	if b.MaxVirtual > 0 && r.Elapsed > b.MaxVirtual {
		out = append(out, fmt.Sprintf("bounds: run took %s virtual, spec allows %s", r.Elapsed, b.MaxVirtual))
	}
	if b.MaxAttempts > 0 && worstAttempts > b.MaxAttempts {
		out = append(out, fmt.Sprintf("bounds: c%02d f%03d used %d attempts, spec allows %d",
			worstClient, worstIndex, worstAttempts, b.MaxAttempts))
	}
	if b.MaxJoulesPerMB > 0 {
		joules, mb := r.EnergyDelivered()
		if mb > 0 {
			if jpm := joules / mb; jpm > b.MaxJoulesPerMB {
				out = append(out, fmt.Sprintf("bounds: %.3f J/MB delivered, spec allows %.3f", jpm, b.MaxJoulesPerMB))
			}
		}
	}
	return out
}

// EnergyDelivered sums the fleet's modeled joules over every finished
// fetch span and the raw megabytes successfully delivered — the two
// numbers behind the joules-per-MB figure the paper optimizes and the
// soak's fleet report prints.
func (r *Report) EnergyDelivered() (joules, rawMB float64) {
	for _, spans := range r.Spans {
		for _, sd := range spans {
			joules += sd.TotalJoules()
		}
	}
	for _, rec := range r.Records {
		if rec.Err == "" {
			rawMB += float64(rec.Raw) / 1e6
		}
	}
	return joules, rawMB
}

// EnergyByClass splits the fleet's modeled joules into the paper's
// radio/cpu/idle components, summed over every span.
func (r *Report) EnergyByClass() map[string]float64 {
	out := map[string]float64{}
	for _, spans := range r.Spans {
		for _, sd := range spans {
			for class, j := range sd.JoulesByClass() {
				out[class] += j
			}
		}
	}
	return out
}
