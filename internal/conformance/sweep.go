package conformance

// The differential sweep: every seeded scenario is executed twice, and
// the runs must agree bit for bit — same fingerprint, same checker
// verdicts, same failures. Combined with the per-run sim-vs-model checks
// this is the acceptance gate the paper's guarantees are held to on
// every change. Scenario sources are unbounded CBR and never go quiet,
// so both runs are cycle-accurate: a fast-forwarded one would skip
// nothing and prove nothing.

import "fmt"

// SweepEntry is the cross-run outcome of one scenario.
type SweepEntry struct {
	Scenario *Scenario
	*Pair
}

// Sweep runs scenarios for seeds baseSeed..baseSeed+count-1, each twice
// cycle-accurately, and checks bit-exactness between the two runs.
func Sweep(baseSeed uint64, count int) ([]*SweepEntry, error) {
	var entries []*SweepEntry
	for i := 0; i < count; i++ {
		sc := Generate(baseSeed + uint64(i))
		pair, err := Twice(func(bool) (*Result, error) { return Run(sc) }, false)
		if err != nil {
			return entries, fmt.Errorf("seed %d: %w", sc.Seed, err)
		}
		entries = append(entries, &SweepEntry{Scenario: sc, Pair: pair})
	}
	return entries, nil
}
