package main

import (
	"fmt"
	"io"
	"os"

	"daelite/internal/conformance"
	"daelite/internal/workload"
)

// loadWorkload parses and compiles a workload pack file.
func loadWorkload(path string) (*workload.Compiled, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ws, err := workload.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	wc, err := workload.Compile(ws)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return wc, nil
}

// runWorkload is the -workload mode of sim and chaos: every phase of the
// pack at path opens its connections through the real configuration
// path, drives its traffic and is checked online against the analytical
// model, with a link-down fault planted in every chaosEvery'th phase (0:
// none). A divergence from the model, or a fingerprint other than
// expectFP (when given), is an error: the pack is a differential test.
func runWorkload(stdout, stderr io.Writer, pf *platformFlags, path, expectFP string, chaosEvery int) error {
	wc, err := loadWorkload(path)
	if err != nil {
		return err
	}
	p, err := wc.BuildPlatform(pf.FastForward)
	if err != nil {
		return err
	}
	exp, err := pf.startExporters(p)
	if err != nil {
		return err
	}
	defer exp.close()
	if url := exp.metricsURL(); url != "" {
		fmt.Fprintf(stdout, "metrics: %s\n", url)
	}
	defer stopOnSignal(p, stderr)()

	res, err := workload.Run(wc, workload.RunOptions{Platform: p, Registry: p.Telemetry(), ChaosEvery: chaosEvery})
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, res.Report())
	if res.Skipped > 0 {
		fmt.Fprintf(stdout, "fast-forwarded %d cycles\n", res.Skipped)
	}
	if err := exp.close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fingerprint: %016x\n", res.Fingerprint)
	if err := checkFingerprint(res.Fingerprint, expectFP); err != nil {
		return err
	}
	if !res.Passed() {
		return fmt.Errorf("workload %s diverged: %d violations, %d failures%s",
			res.Pack, res.Violations, len(res.Failures), firstFive(res.Failures))
	}
	return nil
}

// sweepWorkload is the -workload mode of conform: the pack runs twice
// (the second time fast-forwarded when fastforward is set) and must match
// bit for bit, then, when mutate is set, the checkers must catch the
// pack's planted slot-table flip.
func sweepWorkload(out io.Writer, path string, fastforward, mutate bool) error {
	wc, err := loadWorkload(path)
	if err != nil {
		return err
	}
	sw, err := workload.Sweep(wc, fastforward)
	if err != nil {
		return fmt.Errorf("sweep %s: %w", wc.Name(), err)
	}
	failed := !sw.Passed()
	for _, m := range sw.Mismatches {
		fmt.Fprintf(out, "FAIL %s: %s\n", wc.Name(), m)
	}
	for i, r := range []*conformance.Result{sw.Reference, sw.Compared} {
		if r.Passed() {
			continue
		}
		fmt.Fprintf(out, "FAIL %s ff=%v violations=%d\n", wc.Name(), i == 1 && fastforward, r.Violations)
		for _, msg := range r.Failures {
			fmt.Fprintf(out, "     %s\n", msg)
		}
	}
	fmt.Fprintf(out, "workload %s: %d phases, fingerprint=%016x delivered=%d, bit-exact across two runs\n",
		wc.Name(), len(wc.Phases), sw.Reference.Fingerprint, sw.Reference.Delivered)
	if fastforward {
		fmt.Fprintf(out, "fast-forward: %d cycles skipped, bit-exact vs accurate reference\n", sw.Compared.Skipped)
	}

	if mutate {
		violations, err := workload.MutationSmoke(wc)
		if err != nil {
			return fmt.Errorf("mutation smoke %s: %w", wc.Name(), err)
		}
		fmt.Fprintf(out, "mutation smoke: violations after planted slot-table flip=%d\n", violations)
		if violations == 0 {
			return fmt.Errorf("mutation smoke %s: the planted corruption went undetected", wc.Name())
		}
	}
	if failed {
		return fmt.Errorf("workload %s diverged between runs", wc.Name())
	}
	return nil
}
