package conformance

// The differential harness. Seeded random scenarios (scenario.go) and
// application workload packs (internal/workload) both run through it:
// NewHarness attaches the invariant checkers and the wire fingerprint,
// AddFlow starts each connection's traffic, KillLink plants a link-down
// fault, Drive runs the platform and repairs around stalls,
// CheckLatency holds every undisturbed flow to the TDM latency law, and
// Finish folds the run into a Result. Twice runs a differential a
// second time and compares the two Results; FlipDrill is the slot-table
// upset both mutation smokes plant.

import (
	"fmt"

	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/sim"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// Result is the outcome of one differential run.
type Result struct {
	// Fingerprint folds every NI output flit, the delivered word count
	// and the checker verdicts: the bit-exactness witness across runs
	// and execution modes.
	Fingerprint uint64
	// Violations is the checkers' total violation count (zero for a
	// healthy platform).
	Violations uint64
	// Opened counts connections that were actually admitted.
	Opened int
	// Delivered sums words delivered to all sinks.
	Delivered uint64
	// Skipped counts fast-forwarded cycles. Deliberately outside the
	// fingerprint: a fast-forwarded run must fingerprint identically to
	// an accurate one.
	Skipped uint64
	// Failures lists differential-check failures (empty on pass).
	Failures []string
}

// Passed reports whether the run was violation- and divergence-free.
func (r *Result) Passed() bool { return r.Violations == 0 && len(r.Failures) == 0 }

// Harness is one differential run in progress on a platform.
type Harness struct {
	Model   *Model
	Checker *Checker
	p       *core.Platform
	fp      *sim.Fingerprint
	health  *core.HealthMonitor
}

// NewHarness attaches the invariant checkers to p, publishing into reg,
// and then the wire fingerprint. Attach it before any traffic: every
// fingerprint depends on the order in which probes and components are
// registered.
func NewHarness(p *core.Platform, reg *telemetry.Registry) *Harness {
	ck := Attach(p, reg, Options{})
	return &Harness{Model: ck.m, Checker: ck, p: p, fp: WireFingerprint(p)}
}

// Flow is one driven connection: its source and one sink per
// destination, in Spec.Dsts order for a multicast tree.
type Flow struct {
	// Name identifies the connection in failure messages.
	Name  string
	Conn  *core.Connection
	Src   *traffic.Source
	Sinks []*traffic.Sink
}

// Received sums the words every sink of the flow got.
func (fl *Flow) Received() uint64 {
	var n uint64
	for _, k := range fl.Sinks {
		n += k.Received()
	}
	return n
}

// AddFlow starts c's traffic: a source named prefix+"src<i>" configured
// by cfg, then one sink per destination, named prefix+"sink<i>" for
// unicast and prefix+"sink<i>.<j>" for the j-th tree destination.
// Component names and creation order are part of the fingerprint.
func (h *Harness) AddFlow(name, prefix string, i int, c *core.Connection, cfg traffic.SourceConfig) *Flow {
	p := h.p
	fl := &Flow{Name: name, Conn: c}
	fl.Src = traffic.NewSource(p.Sim, fmt.Sprintf("%ssrc%d", prefix, i), p.NI(c.Spec.Src), c.SrcChannel, cfg)
	if c.Tree == nil {
		fl.Sinks = append(fl.Sinks, traffic.NewSink(p.Sim, fmt.Sprintf("%ssink%d", prefix, i), p.NI(c.Spec.Dst), c.DstChannel))
		return fl
	}
	for j, d := range c.Spec.Dsts {
		fl.Sinks = append(fl.Sinks, traffic.NewSink(p.Sim, fmt.Sprintf("%ssink%d.%d", prefix, i, j), p.NI(d), c.DstChannels[d]))
	}
	return fl
}

// Victim picks the link a planted fault hits: the first router-owned
// hop of the first connection in conns (nil entries skipped) that has
// one. For a unicast path that crosses two routers it is the path's
// second link, a router-to-router hop; for a multicast tree it is the
// first edge leaving a router. An NI's injection link has no alternative
// route, so a link-down there would be unrepairable. Victim returns -1
// when no connection qualifies.
func Victim(p *core.Platform, conns []*core.Connection) topology.LinkID {
	for _, c := range conns {
		switch {
		case c == nil:
		case c.Fwd != nil && len(c.Fwd.Paths[0].Path) >= 3:
			return c.Fwd.Paths[0].Path[1]
		case c.Tree != nil:
			for _, e := range c.Tree.Edges {
				if p.Routers[p.Mesh.Graph.Link(e.Link).From] != nil {
					return e.Link
				}
			}
		}
	}
	return -1
}

// KillLink plants a link-down fault on link from cycle at, seeded with
// seed, and arms the health monitor Drive repairs from (one per harness,
// attached after the fault's injector).
func (h *Harness) KillLink(seed uint64, link topology.LinkID, at uint64) error {
	if _, err := fault.Attach(h.p, seed, fault.Fault{Kind: fault.LinkDown, Link: link, From: at}); err != nil {
		return err
	}
	if h.health == nil {
		h.health = core.NewHealthMonitor(h.p, 256)
	}
	return nil
}

// Drive runs the platform in 256-cycle chunks until cycle end, stopping
// at the first chunk boundary where done (when non-nil) holds. Every
// progress decision lands on a chunk boundary, so it is the same in
// every execution mode. After a chunk in which the health monitor saw a
// stall, Drive repairs around it. A repair closes the stalled connection
// and opens a replacement with a fresh ID, so Drive repoints the flow
// that carried it, letting traffic bookkeeping and the differential
// checks see the live connection, and resyncs the checker. Drive returns
// how many flows it repointed. A repair that finds no spare capacity
// fails deterministically; the run then continues degraded, without the
// monitor.
func (h *Harness) Drive(flows []*Flow, end uint64, done func() bool) (repointed int) {
	p := h.p
	for p.Cycle() < end && (done == nil || !done()) {
		step := uint64(256)
		if rest := end - p.Cycle(); rest < step {
			step = rest
		}
		p.Run(step)
		if h.health == nil || len(h.health.Stalled()) == 0 {
			continue
		}
		repairs, err := p.RepairStalled(h.health, 1_000_000)
		if err != nil {
			h.health = nil
		}
		for _, r := range repairs {
			if r.Conn == nil {
				continue
			}
			for _, fl := range flows {
				if fl.Conn.ID == r.OldID {
					fl.Conn = r.Conn
					repointed++
				}
			}
		}
		h.Checker.Resync()
	}
	return repointed
}

// CheckLatency holds an undisturbed flow's deliveries to the TDM latency
// law: a single-path unicast word's network latency is exactly the
// model's constant, a multipath word's lies within [NetMin, NetMax], and
// every word reaching a multicast destination takes exactly that
// destination's MulticastNet. Each breach is reported through fail.
// CheckLatency returns false when a unicast flow delivered nothing.
func (h *Harness) CheckLatency(fl *Flow, fail func(format string, args ...interface{})) bool {
	c := fl.Conn
	if c.Tree == nil {
		st := fl.Sinks[0].Stats()
		if st.Count == 0 {
			fail("conn %s: no deliveries", fl.Name)
			return false
		}
		lat := h.Model.UnicastLatency(c)
		if len(c.Fwd.Paths) == 1 {
			if st.MinLat != lat.NetMin || st.MaxLat != lat.NetMax {
				fail("conn %s: net latency [%d,%d], model law says exactly %d",
					fl.Name, st.MinLat, st.MaxLat, lat.NetMin)
			}
		} else if st.MinLat < lat.NetMin || st.MaxLat > lat.NetMax {
			fail("conn %s: net latency [%d,%d] outside model [%d,%d]",
				fl.Name, st.MinLat, st.MaxLat, lat.NetMin, lat.NetMax)
		}
		return true
	}
	for j, d := range c.Spec.Dsts {
		st := fl.Sinks[j].Stats()
		if st.Count == 0 {
			fail("conn %s dst %d: no deliveries", fl.Name, d)
			continue
		}
		net := h.Model.MulticastNet(c, d)
		if st.MinLat != net || st.MaxLat != net {
			fail("conn %s dst %d: net latency [%d,%d], model law says exactly %d",
				fl.Name, d, st.MinLat, st.MaxLat, net)
		}
	}
	return true
}

// Finish folds the checkers' verdicts into res, one failure per recorded
// violation, then res.Delivered and the verdict count into the
// fingerprint, and records the fast-forwarded cycles.
func (h *Harness) Finish(res *Result) {
	res.Violations = h.Checker.Violations()
	for _, v := range h.Checker.Recorded() {
		res.Failures = append(res.Failures, "violation "+v.String())
	}
	res.Fingerprint = h.fp.Mix(res.Delivered).Mix(res.Violations).Sum()
	res.Skipped = h.p.Sim.SkippedCycles()
}

// Pair is one differential executed twice: the cycle-accurate reference
// and the compared run.
type Pair struct {
	Reference, Compared *Result
	// Mismatches lists how the runs diverged (empty on pass).
	Mismatches []string
}

// Passed reports whether both runs passed their own differential checks
// and matched bit for bit.
func (pr *Pair) Passed() bool {
	return len(pr.Mismatches) == 0 && pr.Reference.Passed() && pr.Compared.Passed()
}

// Twice executes run cycle-accurately as the reference, then once more
// (fast-forwarded when ff is set), and requires fingerprints, admission
// outcomes, delivery counts and checker verdicts to be bit-identical.
// The reference must skip nothing; with ff set, the second run must
// genuinely skip cycles, because identical results without skipping
// would prove nothing about the fast-forward path.
func Twice(run func(ff bool) (*Result, error), ff bool) (*Pair, error) {
	ref, err := run(false)
	if err != nil {
		return nil, err
	}
	r, err := run(ff)
	if err != nil {
		return nil, err
	}
	pr := &Pair{Reference: ref, Compared: r}
	mismatch := func(format string, args ...interface{}) {
		pr.Mismatches = append(pr.Mismatches, fmt.Sprintf(format, args...))
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
	return pr, nil
}

// FlipDrill plants a single-event upset in the slot table behind link:
// its source router's entry for the link's first reserved slot, 8
// cycles from now (fault.SlotTableFlip, seeded with seed). It then runs
// the platform for cycles more and returns the table and contention
// violations ck has counted.
func FlipDrill(p *core.Platform, ck *Checker, seed uint64, link topology.LinkID, cycles uint64) (uint64, error) {
	l := p.Mesh.Graph.Link(link)
	occ := p.Alloc.LinkOccupancy(link)
	if occ.Count() == 0 {
		return 0, fmt.Errorf("conformance: victim link %d carries no reservation", link)
	}
	if _, err := fault.Attach(p, seed, fault.Fault{
		Kind: fault.SlotTableFlip, Router: l.From, Out: l.FromPort,
		Slot: occ.Slots()[0], From: p.Cycle() + 8,
	}); err != nil {
		return 0, err
	}
	p.Run(cycles)
	return ck.ViolationCount(CheckTable) + ck.ViolationCount(CheckContention), nil
}
