package workload

import "fmt"

// SweepResult is the outcome of running one pack twice (the second time
// optionally fast-forwarded) and comparing everything observable.
type SweepResult struct {
	Pack string
	// Reference is the cycle-accurate run the other execution is
	// compared against.
	Reference *Result
	// Compared is the second run.
	Compared *Result
	// Mismatches lists cross-execution divergences (empty on pass).
	Mismatches []string
}

// Passed reports whether both executions passed their own differential
// checks and matched bit for bit.
func (s *SweepResult) Passed() bool {
	return len(s.Mismatches) == 0 && s.Reference.Passed() && s.Compared.Passed()
}

// Sweep runs the pack cycle-accurately as the reference, then once more
// (fast-forwarded when ff is set), and requires fingerprints, admission
// outcomes, delivery counts and checker verdicts to be bit-identical
// between the two. With ff set, the second run must also have genuinely
// skipped cycles — identical results without skipping would prove
// nothing about the fast-forward path.
func Sweep(c *Compiled, ff bool) (*SweepResult, error) {
	ref, err := Run(c, RunOptions{})
	if err != nil {
		return nil, err
	}
	r, err := Run(c, RunOptions{FastForward: ff})
	if err != nil {
		return nil, err
	}
	sr := &SweepResult{Pack: c.Name(), Reference: ref, Compared: r}
	mismatch := func(format string, args ...interface{}) {
		sr.Mismatches = append(sr.Mismatches, fmt.Sprintf(format, args...))
	}
	if ref.Skipped != 0 {
		mismatch("cycle-accurate reference skipped %d cycles", ref.Skipped)
	}
	tag := fmt.Sprintf("ff=%v", ff)
	if r.Fingerprint != ref.Fingerprint {
		mismatch("%s: fingerprint %016x != reference %016x", tag, r.Fingerprint, ref.Fingerprint)
	}
	if r.Opened != ref.Opened || r.Delivered != ref.Delivered {
		mismatch("%s: opened/delivered %d/%d != reference %d/%d",
			tag, r.Opened, r.Delivered, ref.Opened, ref.Delivered)
	}
	if r.Violations != ref.Violations || len(r.Failures) != len(ref.Failures) {
		mismatch("%s: verdicts %d/%d != reference %d/%d",
			tag, r.Violations, len(r.Failures), ref.Violations, len(ref.Failures))
	}
	if ff && r.Skipped == 0 {
		mismatch("%s: fast-forward never engaged", tag)
	}
	return sr, nil
}
