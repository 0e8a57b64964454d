package conformance

// The differential sweep: every seeded scenario is executed twice, and
// the runs must agree bit for bit — same fingerprint, same checker
// verdicts, same failures. Combined with the per-run sim-vs-model checks
// this is the acceptance gate the paper's guarantees are held to on
// every change.

import "fmt"

// SweepEntry is the cross-run outcome of one scenario.
type SweepEntry struct {
	Scenario *Scenario
	Results  []*Result // the cycle-accurate reference, then the compared run
	// Mismatch is set when the two runs diverged.
	Mismatch bool
}

// Passed reports whether every run passed and all agreed.
func (e *SweepEntry) Passed() bool {
	if e.Mismatch {
		return false
	}
	for _, r := range e.Results {
		if !r.Passed() {
			return false
		}
	}
	return true
}

// Sweep runs scenarios for seeds baseSeed..baseSeed+count-1, each twice
// cycle-accurately, and checks bit-exactness between the two runs.
func Sweep(baseSeed uint64, count int) ([]*SweepEntry, error) {
	return sweep(baseSeed, count, false)
}

// SweepFastForward is Sweep with model-guided fast-forwarding armed on
// the second run: a fast-forwarded run must match the accurate reference
// bit for bit — same fingerprint, verdicts, deliveries.
func SweepFastForward(baseSeed uint64, count int) ([]*SweepEntry, error) {
	return sweep(baseSeed, count, true)
}

func sweep(baseSeed uint64, count int, ff bool) ([]*SweepEntry, error) {
	var entries []*SweepEntry
	for i := 0; i < count; i++ {
		sc := Generate(baseSeed + uint64(i))
		ref, err := run(sc, false)
		if err != nil {
			return entries, fmt.Errorf("seed %d reference: %w", sc.Seed, err)
		}
		r, err := run(sc, ff)
		if err != nil {
			return entries, fmt.Errorf("seed %d: %w", sc.Seed, err)
		}
		entries = append(entries, &SweepEntry{
			Scenario: sc,
			Results:  []*Result{ref, r},
			Mismatch: r.Fingerprint != ref.Fingerprint ||
				r.Violations != ref.Violations ||
				r.Delivered != ref.Delivered ||
				r.Opened != ref.Opened,
		})
	}
	return entries, nil
}
