package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"daelite/internal/conformance"
	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/sim"
	"daelite/internal/stats"
)

// soak is the run state sim and chaos share.
type soak struct {
	p        *core.Platform
	exp      *exporters
	fp       *sim.Fingerprint
	ck       *conformance.Checker // nil without -conformance
	links    *stats.Monitor
	inj      *fault.Injector     // nil without a fault campaign
	health   *core.HealthMonitor // nil without a fault campaign
	repairs  []*core.RepairResult
	failures []error
}

// startSoak starts the exporters the flags ask for on p, prints the
// metrics URL, and attaches the fingerprint.
func startSoak(pf *platformFlags, p *core.Platform, stdout io.Writer) (*soak, error) {
	exp, err := pf.startExporters(p)
	if err != nil {
		return nil, err
	}
	if url := exp.metricsURL(); url != "" {
		fmt.Fprintf(stdout, "metrics: %s\n", url)
	}
	return &soak{p: p, exp: exp, fp: conformance.WireFingerprint(p)}, nil
}

// inject schedules faults on the platform and arms a health monitor that
// declares a connection stalled after stallTimeout cycles without
// progress.
func (s *soak) inject(seed, stallTimeout uint64, faults ...fault.Fault) error {
	inj, err := fault.Attach(s.p, seed, faults...)
	if err != nil {
		return err
	}
	if reg := s.p.Telemetry(); reg != nil {
		inj.AttachTelemetry(reg)
	}
	s.inj = inj
	s.health = core.NewHealthMonitor(s.p, stallTimeout)
	s.exp.dumpOnStall(s.health)
	return nil
}

// stopOnSignal stops p's kernel on the first SIGINT or SIGTERM: the
// stepping loop falls through, and the partial-run reports, telemetry and
// artifacts still get written. Call the returned func when the run is
// done.
func stopOnSignal(p *core.Platform, stderr io.Writer) (stop func()) {
	ctx, stop := onSignal(stderr)
	context.AfterFunc(ctx, func() { p.Sim.Stop("interrupted by signal") })
	return stop
}

// run steps the platform for cycles. With a fault campaign it soaks in
// 512-cycle chunks and, whenever the health monitor latches a stall, runs
// one detect-diagnose-repair round; a connection whose repair fails (no
// path left around the exclusions) is closed, and the failure is
// recorded for finish. A stopped kernel ends the run early.
func (s *soak) run(cycles uint64, stderr io.Writer) {
	if s.health == nil {
		s.p.Run(cycles)
		return
	}
	for end := s.p.Cycle() + cycles; s.p.Cycle() < end; {
		s.p.Run(min(512, end-s.p.Cycle()))
		if stopped, _ := s.p.Sim.Stopped(); stopped {
			break
		}
		if len(s.health.Stalled()) == 0 {
			continue
		}
		res, err := s.p.RepairStalled(s.health, 1_000_000)
		s.repairs = append(s.repairs, res...)
		if err != nil {
			s.failures = append(s.failures, err)
			fmt.Fprintf(stderr, "repair failed at cycle %d: %v\n", s.p.Cycle(), err)
		}
	}
}

// finish prints the tail of a run — kernel state, the subcommand's table,
// the fault, repair and link reports — closes the exporters, and checks
// conformance and the fingerprint. Failures come back joined instead of
// cutting the tail short, so the caller can still write its artifacts.
func (s *soak) finish(stdout io.Writer, table, linkTitle, expectFP string) error {
	p := s.p
	if stopped, reason := p.Sim.Stopped(); stopped {
		fmt.Fprintf(stdout, "run stopped early at cycle %d: %s\n", p.Cycle(), reason)
	}
	if skipped := p.Sim.SkippedCycles(); skipped > 0 {
		fmt.Fprintf(stdout, "fast-forwarded %d of %d cycles\n", skipped, p.Cycle())
	} else if blocker := p.Sim.SkipBlocker(); blocker != "" {
		fmt.Fprintf(stdout, "fast-forwarded 0 cycles (last blocked by %s)\n", blocker)
	}
	evaluated, offered := p.Sim.Evaluations()
	fmt.Fprintf(stdout, "evaluated %d of %d component-cycles\n", evaluated, offered)
	fmt.Fprintln(stdout, table)
	if s.inj != nil {
		fmt.Fprintln(stdout, stats.FaultReport("Fault activations", s.inj))
		s.links.ObserveFaults(s.inj)
	}
	if len(s.repairs) > 0 {
		fmt.Fprintln(stdout, stats.RepairReport(p, s.repairs))
	}
	fmt.Fprintln(stdout, s.links.Report(linkTitle))

	errs := []error{s.exp.close()}
	if s.ck != nil {
		s.ck.CheckNow()
		if v := s.ck.Violations(); v > 0 {
			errs = append(errs, fmt.Errorf("conformance: %d violations%s", v, firstFive(s.ck.Recorded())))
		} else {
			fmt.Fprintln(stdout, "conformance: no violations")
		}
	}
	fp := s.fp.Sum()
	fmt.Fprintf(stdout, "fingerprint: %016x\n", fp)
	errs = append(errs, checkFingerprint(fp, expectFP))
	if len(s.failures) > 0 {
		errs = append(errs, fmt.Errorf("%d connection(s) could not be repaired", len(s.failures)))
	}
	return errors.Join(errs...)
}

// firstFive renders up to the first five items, one per indented line.
func firstFive[T any](items []T) string {
	var b strings.Builder
	for _, it := range items[:min(5, len(items))] {
		fmt.Fprintf(&b, "\n  %+v", it)
	}
	return b.String()
}
