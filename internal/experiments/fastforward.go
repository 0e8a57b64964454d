package experiments

import (
	"fmt"
	"time"

	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/report"
)

// FastForwardThroughput is experiment E22: simulation throughput with
// model-guided fast-forwarding versus cycle-accurate execution, on a
// full 16x16 torus platform set up through the hierarchical config
// regions. Four workloads bound the win: idle
// (sources drain almost immediately), settled CBR (a burst of traffic,
// then a long quiescent tail), churn (connections torn down mid-run)
// and chaos (a link failure, stall detection and online repair). Every
// run ends in a settled stretch; the headline cycles/sec is measured
// over that window, where fast-forward skips every cycle and
// the cycle-accurate run still evaluates every component. Both modes
// must produce bit-identical delivery fingerprints — the paper's
// determinism contract extended to the fast-forward path.
//
// The cycles/sec numbers are wall-clock measurements and
// machine-dependent, so E22 is excluded from the golden experiment
// output (All) and runs only when selected by name.
func FastForwardThroughput() (*Result, error) {
	res := newResult("E22", "fast-forward throughput")
	const width, height, wheel = 16, 16, 8
	const active = 4000 // traffic/churn/chaos phase, mostly cycle-accurate
	const window = 8000 // settled measurement window

	type mode struct {
		name string
		ff   bool
	}
	modes := []mode{{"seq", false}, {"ff", true}}

	workloads := []struct {
		name  string
		limit uint64 // words per row source
		churn bool   // tear down every fourth row mid-run
		chaos bool   // kill a used link, detect the stall, repair
	}{
		{"idle", 1, false, false},
		{"cbr", 300, false, false},
		{"churn", 300, true, false},
		{"chaos", 300, false, true},
	}

	t := report.NewTable("E22 — fast-forward cycles/sec vs cycle-accurate (16x16 torus, regioned set-up)",
		"Workload", "Mode", "Settled cycles/sec", "Skipped", "Deterministic")
	for _, wl := range workloads {
		var refFP uint64
		var seqCPS float64
		for i, m := range modes {
			bm, err := BuildBigMeshFF(width, height, wheel, wl.limit, m.ff)
			if err != nil {
				return nil, fmt.Errorf("experiments: E22 %s/%s: %w", wl.name, m.name, err)
			}
			p := bm.Platform

			var hmon *core.HealthMonitor
			if wl.chaos {
				// Kill a router-to-router hop of row 0's path a quarter
				// into the active phase; the health monitor latches the
				// stall and the repair loop below re-routes around it.
				victim := bm.conns[0].Fwd.Paths[0].Path[1]
				at := p.Cycle() + active/4
				if _, err := fault.Attach(p, 1, fault.Fault{Kind: fault.LinkDown, Link: victim, From: at}); err != nil {
					return nil, fmt.Errorf("experiments: E22 fault: %w", err)
				}
				hmon = core.NewHealthMonitor(p, 256)
			}

			// Active phase, chunked so host decisions (repair, churn)
			// land at identical cycle boundaries in every mode.
			closed := false
			end := p.Cycle() + active
			for p.Cycle() < end {
				step := uint64(512)
				if rest := end - p.Cycle(); rest < step {
					step = rest
				}
				bm.Run(step)
				if hmon != nil && len(hmon.Stalled()) > 0 {
					if _, err := p.RepairStalled(hmon, 1_000_000); err != nil {
						return nil, fmt.Errorf("experiments: E22 repair: %w", err)
					}
				}
				if wl.churn && !closed && p.Cycle() >= end-active/2 {
					closed = true
					for y := 0; y < len(bm.conns); y += 4 {
						if err := p.Close(bm.conns[y]); err != nil {
							return nil, fmt.Errorf("experiments: E22 close row %d: %w", y, err)
						}
					}
					if _, err := p.CompleteConfig(1_000_000); err != nil {
						return nil, fmt.Errorf("experiments: E22 settle teardown: %w", err)
					}
				}
			}

			// Settled window: the headline throughput measurement.
			start := time.Now()
			bm.Run(window)
			elapsed := time.Since(start)
			cps := float64(window) / elapsed.Seconds()

			fp := bm.Fingerprint()
			det := "-"
			if i == 0 {
				refFP = fp
				seqCPS = cps
			} else if fp == refFP {
				det = "yes"
			} else {
				return nil, fmt.Errorf("experiments: E22 %s %s fingerprint %x != sequential %x",
					wl.name, m.name, fp, refFP)
			}
			total := p.Cycle()
			skipped := p.Sim.SkippedCycles()
			t.AddRow(wl.name, m.name, fmt.Sprintf("%.0f", cps),
				fmt.Sprintf("%d/%d (%.0f%%)", skipped, total, 100*float64(skipped)/float64(total)), det)
			res.Metrics[fmt.Sprintf("cycles_per_sec_%s_%s", wl.name, m.name)] = cps
			if m.ff {
				res.Metrics[fmt.Sprintf("skipped_frac_%s", wl.name)] = float64(skipped) / float64(total)
				res.Metrics[fmt.Sprintf("ff_speedup_%s", wl.name)] = cps / seqCPS
			}
		}
	}

	res.Text = t.Render() + "\nBoth modes reproduced the same delivery fingerprint bit-identically.\n"
	return res, nil
}
