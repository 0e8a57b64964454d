package main

import (
	"flag"
	"fmt"
	"io"

	"daelite/internal/conformance"
)

// runConform is the CI conformance gate: a differential sweep of seeded
// random scenarios — each executed twice with the online invariant
// checkers attached, compared against the analytical reference model and
// against each other — then the mutation smoke drill (seeded slot-table
// and credit corruptions the checkers must catch). Any disagreement,
// violation or missed mutation fails the run. -workload applies the same
// discipline to a workload pack (see sweepWorkload); -fastforward applies
// to packs only, since a scenario never goes quiet and so never skips.
//
//	daelite conform -scenarios 25 -seed 1
func runConform(fs *flag.FlagSet, argv []string, stdout, stderr io.Writer) error {
	var scenarios int
	var seed, mutSeed uint64
	var mutate, verbose, fastforward bool
	var workloadPath string
	fs.IntVar(&scenarios, "scenarios", 25, "seeded scenarios in the differential sweep")
	fs.Uint64Var(&seed, "seed", 1, "base seed; scenario i uses seed+i")
	fs.BoolVar(&mutate, "mutate", true, "run the mutation smoke drill after the sweep")
	fs.Uint64Var(&mutSeed, "mutation-seed", 3, "seed for the mutation smoke drill")
	fs.BoolVar(&verbose, "v", false, "print every scenario, not just failures")
	fs.BoolVar(&fastforward, "fastforward", false, "with -workload: fast-forward the pack's second run, checked against the cycle-accurate first")
	fs.StringVar(&workloadPath, "workload", "", "sweep this workload pack JSON instead of random scenarios")
	if err := parse(fs, argv); err != nil {
		return err
	}

	if workloadPath != "" {
		return sweepWorkload(stdout, workloadPath, fastforward, mutate)
	}
	if fastforward {
		fmt.Fprintln(stderr, "daelite conform: -fastforward needs -workload: scenario sources are unbounded CBR and never go quiet, so a fast-forwarded scenario skips no cycle and proves nothing")
		return usageError{fmt.Errorf("-fastforward without -workload")}
	}
	failed := 0
	if scenarios > 0 {
		entries, err := conformance.Sweep(seed, scenarios)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		for _, e := range entries {
			if e.Passed() {
				if verbose {
					fmt.Fprintf(stdout, "ok   seed=%d %s fingerprint=%016x delivered=%d\n",
						e.Scenario.Seed, e.Scenario, e.Reference.Fingerprint, e.Reference.Delivered)
				}
				continue
			}
			failed++
			fmt.Fprintf(stdout, "FAIL seed=%d %s run-mismatch=%v\n", e.Scenario.Seed, e.Scenario, len(e.Mismatches) > 0)
			for _, r := range []*conformance.Result{e.Reference, e.Compared} {
				if r.Passed() {
					continue
				}
				fmt.Fprintf(stdout, "     violations=%d\n", r.Violations)
				for _, f := range r.Failures {
					fmt.Fprintf(stdout, "       %s\n", f)
				}
			}
		}
		fmt.Fprintf(stdout, "sweep: %d/%d scenarios passed, bit-exact across two runs\n", len(entries)-failed, len(entries))
	}

	// The mutation drill always runs cycle-accurately: its checkers
	// sample structural state, and a skip could step over a planted
	// corruption's observable window.
	missed := false
	if mutate {
		res, err := conformance.MutationSmoke(mutSeed)
		if err != nil {
			return fmt.Errorf("mutation smoke: %w", err)
		}
		fmt.Fprintf(stdout, "mutation smoke: slot-table violations=%d credit violations=%d events=%d misroute violations=%d\n",
			res.SlotTableViolations, res.CreditViolations, res.Events, res.StrayViolations)
		if res.StrayDetail != "" {
			fmt.Fprintf(stdout, "mutation smoke: first misrouted word: %s\n", res.StrayDetail)
		}
		if missed = !res.Detected(); missed {
			fmt.Fprintln(stdout, "FAIL mutation smoke: a planted corruption went undetected")
		}
	}

	if failed > 0 || missed {
		return fmt.Errorf("conformance failed (see the FAIL lines)")
	}
	return nil
}
