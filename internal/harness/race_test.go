//go:build race

package harness

// raceEnabled reports a race-detector build, whose runtime allocates more
// than a plain one (and whose sync.Pools drop what they are handed at
// random), so allocation budgets do not hold under it.
const raceEnabled = true
