package core

import (
	"errors"
	"fmt"

	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
)

// RepairResult documents one connection repair: the timeline (detection,
// submission of the tear-down/re-set-up packets, configuration settled) and
// the exclusions in force. RepairCycles — the span from submission to
// settled — is the metric the paper's fast set-up claim translates to under
// faults: repair latency is dominated by two set-up transactions through
// the configuration tree.
type RepairResult struct {
	// OldID and NewID are the connection IDs before and after repair
	// (the Connection object is replaced; its endpoints and channel
	// indices are preserved).
	OldID, NewID int
	// Conn is the repaired (re-opened) connection.
	Conn *Connection
	// DetectCycle is when the health monitor declared the stall (zero if
	// the repair was operator-initiated without a monitor).
	DetectCycle uint64
	// SubmitCycle is when tear-down began; DoneCycle is when the new
	// configuration had fully settled.
	SubmitCycle uint64
	DoneCycle   uint64
	// Excluded lists the links barred from the re-allocation.
	Excluded []topology.LinkID
}

// RepairCycles is the repair latency: tear-down submission to settled
// re-configuration.
func (r *RepairResult) RepairCycles() uint64 {
	if r.DoneCycle < r.SubmitCycle {
		return 0
	}
	return r.DoneCycle - r.SubmitCycle
}

// DetectToDoneCycles is the full outage-handling span from stall detection.
func (r *RepairResult) DetectToDoneCycles() uint64 {
	if r.DetectCycle == 0 || r.DoneCycle < r.DetectCycle {
		return r.RepairCycles()
	}
	return r.DoneCycle - r.DetectCycle
}

// ExcludeLinks marks links as failed for all future allocations; repairs
// route around them. Existing reservations are not touched —
// RepairStalled tears down the connections a health monitor found
// stalled.
func (p *Platform) ExcludeLinks(links ...topology.LinkID) {
	for _, l := range links {
		p.Alloc.ExcludeLink(l)
	}
}

// RepairStalled runs the full detect-diagnose-repair loop once: it takes
// the monitor's stalled connections, excludes the suspect links, tears
// every stalled connection down, and re-admits them all as one batch
// through the allocator's parallel admission engine — one configuration
// settle covers the whole group, so N repairs cost one round through the
// configuration tree instead of N. Each re-opened connection keeps its
// spec and NI channel indices, routed around the excluded links, so
// traffic endpoints bound to (NI, channel) keep working: words still
// queued at a source are delivered over the new path, only words in
// flight on a failed link are lost. Unrelated connections are never
// touched — their slots keep rotating while the repair packets flow
// through the separate configuration tree (the paper's E13 property,
// under faults). Results are returned in ID order. A connection that
// cannot be re-admitted stays closed: every other one is still repaired
// and returned, and the failures come back joined.
func (p *Platform) RepairStalled(h *HealthMonitor, budget uint64) ([]*RepairResult, error) {
	stalled := h.Stalled()
	if len(stalled) == 0 {
		return nil, nil
	}
	p.ExcludeLinks(h.SuspectLinks()...)
	excluded := p.Alloc.ExcludedLinks()
	submit := p.Sim.Cycle()

	// One repair span per stalled connection, each parenting its own
	// teardown and re-set-up legs; all end together when the shared
	// configuration settle returns (or at the failure cycle).
	var roots []tracing.SpanRef
	if p.tracer != nil {
		roots = make([]tracing.SpanRef, len(stalled))
		saved := p.traceParent
		for i, c := range stalled {
			roots[i] = p.tracer.StartChild(saved, fmt.Sprintf("repair #%d", c.ID), "repair", submit)
			p.tracer.SetAttr(roots[i], "detail", p.connDetail(c.Spec))
		}
		defer func() {
			p.traceParent = saved
			cycle := p.Sim.Cycle()
			for _, r := range roots {
				p.tracer.End(r, cycle)
			}
		}()
	}

	// Tear every stalled connection down first: their slots return to the
	// pool, so the batch re-admission sees the full residual capacity.
	specs := make([]ConnectionSpec, len(stalled))
	prefs := make([]chanPref, len(stalled))
	detects := make([]uint64, len(stalled))
	oldIDs := make([]int, len(stalled))
	for i, c := range stalled {
		specs[i] = c.Spec
		prefs[i] = chanPref{src: c.SrcChannel, dst: c.DstChannel, dsts: c.DstChannels}
		detects[i] = h.DetectCycle(c.ID)
		oldIDs[i] = c.ID
		if roots != nil {
			p.traceParent = roots[i]
		}
		if err := p.Close(c); err != nil {
			return nil, fmt.Errorf("core: repair tear-down: %w", err)
		}
	}

	conns, errs := p.openBatch(specs, prefs, roots)
	if _, err := p.CompleteConfig(budget); err != nil {
		return nil, fmt.Errorf("core: repair configuration: %w", err)
	}
	done := p.Sim.Cycle()

	var out []*RepairResult
	var failed []error
	for i := range stalled {
		if errs[i] != nil {
			failed = append(failed, fmt.Errorf("core: repair re-allocation: %w", errs[i]))
			continue
		}
		nc := conns[i]
		res := &RepairResult{
			OldID:       oldIDs[i],
			NewID:       nc.ID,
			Conn:        nc,
			DetectCycle: detects[i],
			SubmitCycle: submit,
			DoneCycle:   done,
			Excluded:    excluded,
		}
		if p.tel != nil {
			// The repair span covers the whole tear-down + re-set-up
			// transaction; the set-up and teardown legs are also counted
			// individually by CompleteConfig. Words counts the re-set-up
			// packets (the repair-specific configuration cost).
			p.countSpan("repair", res.RepairCycles(), nc.Setup.Words)
			p.tel.Emit(telemetry.Event{
				Cycle:  res.DoneCycle,
				Kind:   "repair",
				Detail: fmt.Sprintf("conn %d -> %d (%s)", res.OldID, res.NewID, p.connDetail(nc.Spec)),
			})
		}
		out = append(out, res)
	}
	return out, errors.Join(failed...)
}
