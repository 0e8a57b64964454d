package workload

import "daelite/internal/conformance"

// Sweep runs the pack cycle-accurately as the reference, then once more
// (fast-forwarded when ff is set), and compares the two runs through the
// differential harness (conformance.Twice): fingerprints, admission
// outcomes, delivery counts and checker verdicts must be bit-identical,
// and with ff set the second run must genuinely skip cycles.
func Sweep(c *Compiled, ff bool) (*conformance.Pair, error) {
	return conformance.Twice(func(ff bool) (*conformance.Result, error) {
		r, err := Run(c, RunOptions{FastForward: ff})
		if err != nil {
			return nil, err
		}
		return &r.Result, nil
	}, ff)
}
