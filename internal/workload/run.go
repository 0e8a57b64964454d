package workload

import (
	"fmt"

	"daelite/internal/conformance"
	"daelite/internal/core"
	"daelite/internal/spec"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// RunOptions parameterizes one pack execution.
type RunOptions struct {
	// FastForward arms model-guided fast-forwarding. Ignored when
	// Platform is supplied.
	FastForward bool
	// Platform, when non-nil, is a prebuilt platform (see BuildPlatform)
	// the caller keeps ownership of — exporters stay attached. When nil,
	// Run builds and owns one.
	Platform *core.Platform
	// Registry receives the invariant checkers' counters and events; nil
	// allocates a private one.
	Registry *telemetry.Registry
	// ChaosEvery plants a link-down fault in every Nth phase (1: every
	// phase; 0: off) and repairs around it mid-phase. Chaos runs skip
	// the exact-latency and occupancy-restore differentials — a repair
	// legitimately moves reservations — but keep the invariant checkers
	// as hard failures and stay bit-deterministic.
	ChaosEvery int
}

// PhaseResult is the measured outcome of one phase.
type PhaseResult struct {
	Name  string
	Kind  string
	Layer int
	// Requested/Opened/NoFit count the phase's admission outcomes.
	Requested, Opened, NoFit int
	// Words is the payload volume actually offered (admitted connections
	// only, summed per destination); Delivered is what the sinks got.
	Words, Delivered uint64
	// MACs and MMemWords carry the compiled compute/memory activity for
	// energy accounting.
	MACs, MMemWords uint64
	// StartCycle/Cycles bound the phase on the platform's timeline;
	// SetupCycles is where admission configuration settled and
	// DrainCycles where the drive loop ended, both relative to
	// StartCycle.
	StartCycle, SetupCycles, Cycles, DrainCycles uint64
	// Forwarded is the router-traversal count the phase added — the
	// activity term the energy model prices.
	Forwarded uint64
	// Drained reports whether every bounded source finished and every
	// expected word arrived within the closed-form budget.
	Drained bool
	// Faulted/Repaired describe chaos activity during the phase.
	Faulted  bool
	Repaired int
	// Failures lists this phase's differential-check failures.
	Failures []string
}

// Result is the outcome of a pack run: the differential harness's
// result plus the pack's name, execution mode and per-phase outcomes.
type Result struct {
	conformance.Result
	Pack        string
	FastForward bool
	Phases      []PhaseResult
}

// Summary renders a one-line verdict.
func (r *Result) Summary() string {
	verdict := "PASS"
	if !r.Passed() {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s: %s phases=%d opened=%d delivered=%d violations=%d failures=%d fingerprint=%016x skipped=%d",
		verdict, r.Pack, len(r.Phases), r.Opened, r.Delivered, r.Violations, len(r.Failures), r.Fingerprint, r.Skipped)
}

// BuildPlatform instantiates the pack's platform with the given
// execution mode, without opening any connections.
func (c *Compiled) BuildPlatform(fastForward bool) (*core.Platform, error) {
	p, err := c.Platform.BuildPlatform()
	if err != nil {
		return nil, err
	}
	if fastForward {
		p.EnableFastForward()
	}
	return p, nil
}

// phaseBudget is the closed-form cycle budget for draining a phase: the
// slowest connection needs Words×wheel/slots cycles at its reserved
// bandwidth, padded by the model's ramp slack. The budget is a pure
// function of the compiled pack, so every execution mode makes the
// give-up decision at the same cycle.
func phaseBudget(ph *Phase, wheel int) uint64 {
	var worst uint64
	for _, cn := range ph.Conns {
		slots := cn.Slots
		if slots < 1 {
			slots = 1
		}
		if t := cn.Words * uint64(wheel) / uint64(slots); t > worst {
			worst = t
		}
	}
	return 4*worst + 8192
}

// openPhase opens a phase's connections as one batch, exactly like an
// application would request them, and waits for their configuration to
// settle. A connection the fabric could not route is nil.
func openPhase(p *core.Platform, ph *Phase) ([]*core.Connection, error) {
	node := func(co spec.Coord) topology.NodeID { return p.Mesh.NI(co.X, co.Y, co.NI) }
	specs := make([]core.ConnectionSpec, len(ph.Conns))
	for i, cn := range ph.Conns {
		cs := core.ConnectionSpec{Src: node(cn.Src), SlotsFwd: cn.Slots}
		if cn.Dst != nil {
			cs.Dst = node(*cn.Dst)
		}
		for _, d := range cn.Dsts {
			cs.Dsts = append(cs.Dsts, node(d))
		}
		specs[i] = cs
	}
	conns, errs := p.OpenBatch(specs)
	for i := range conns {
		if errs[i] != nil {
			conns[i] = nil
		}
	}
	if _, err := p.CompleteConfig(5_000_000); err != nil {
		return nil, fmt.Errorf("workload: phase %s: settle setup: %w", ph.Name, err)
	}
	for _, cn := range conns {
		if cn != nil && cn.State == core.Opening {
			cn.State = core.Open
		}
	}
	return conns, nil
}

// Run executes a compiled pack phase by phase through the conformance
// differential harness, checking every phase against the analytical
// model: link occupancy bit-for-bit (the checker's structural pass),
// exact single-path and multicast latency, complete delivery within the
// closed-form bandwidth bound, and occupancy restoration after
// teardown. The entire run folds into a fingerprint that must be
// bit-identical across runs and fast-forward on/off.
func Run(c *Compiled, opt RunOptions) (*Result, error) {
	p := opt.Platform
	if p == nil {
		var err error
		p, err = c.BuildPlatform(opt.FastForward)
		if err != nil {
			return nil, err
		}
	}
	reg := opt.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	h := conformance.NewHarness(p, reg)
	res := &Result{Pack: c.Name(), FastForward: opt.FastForward}

	totalForwarded := func() uint64 {
		var n uint64
		for _, rt := range p.Routers {
			n += rt.Forwarded()
		}
		return n
	}
	wheel := p.Params.Wheel

	for pi := range c.Phases {
		ph := &c.Phases[pi]
		pr := PhaseResult{
			Name: ph.Name, Kind: ph.Kind, Layer: ph.Layer,
			Requested: len(ph.Conns), MACs: ph.MACs, MMemWords: ph.MMemWords,
			StartCycle: p.Cycle(),
		}
		fail := func(format string, args ...interface{}) {
			pr.Failures = append(pr.Failures, fmt.Sprintf("phase %s: %s", ph.Name, fmt.Sprintf(format, args...)))
		}
		preFP := p.Alloc.Fingerprint()
		startForwarded := totalForwarded()

		conns, err := openPhase(p, ph)
		if err != nil {
			return nil, err
		}
		for _, cn := range conns {
			if cn == nil {
				pr.NoFit++ // interior-path contention; the nominal demand is admissible
			} else {
				pr.Opened++
			}
		}
		pr.SetupCycles = p.Cycle() - pr.StartCycle
		h.Checker.Resync()

		// Traffic: every admitted connection gets a bounded saturating
		// source and one sink per destination.
		var flows []*conformance.Flow
		var expected uint64
		budget := phaseBudget(ph, wheel)
		for i, cn := range conns {
			if cn == nil {
				continue
			}
			req := &ph.Conns[i]
			fl := h.AddFlow(req.Name, fmt.Sprintf("p%d.", pi), i, cn,
				traffic.SourceConfig{Pattern: traffic.CBR, Rate: 1.0, Limit: req.Words, Seed: c.Spec.Seed ^ uint64(pi)<<20 ^ uint64(i)})
			expected += req.Words * uint64(len(fl.Sinks))
			flows = append(flows, fl)
		}
		pr.Words = expected

		// Chaos: kill a routed link partway into the phase and let the
		// health monitor repair around it.
		if opt.ChaosEvery > 0 && (pi+1)%opt.ChaosEvery == 0 {
			if victim := conformance.Victim(p, conns); victim >= 0 {
				// Land the fault inside the transfer window, not the
				// settle tail: a quarter of the closed-form worst-case
				// drain time in, so the slowest flow is still
				// mid-stream when the link dies.
				disrupt := (budget - 8192) / 16
				if disrupt < 64 {
					disrupt = 64
				}
				if err := h.KillLink(c.Spec.Seed^uint64(pi), victim, p.Cycle()+disrupt); err != nil {
					return nil, fmt.Errorf("workload: phase %s: fault attach: %w", ph.Name, err)
				}
				pr.Faulted = true
			}
		}

		// Drive the phase until it drains or the budget runs out.
		delivered := func() uint64 {
			var n uint64
			for _, fl := range flows {
				n += fl.Received()
			}
			return n
		}
		done := func() bool {
			for _, fl := range flows {
				if !fl.Src.Done() {
					return false
				}
			}
			return delivered() == expected
		}
		pr.Repaired = h.Drive(flows, p.Cycle()+budget, done)
		pr.Drained = done()
		pr.DrainCycles = p.Cycle() - pr.StartCycle
		disturbed := pr.Faulted || pr.Repaired > 0
		if !pr.Drained && !disturbed {
			fail("did not drain: %d/%d words within %d-cycle budget", delivered(), expected, budget)
		}

		// Settled tail: fixed, and long enough for fast-forward to skip
		// once the bounded sources are done.
		p.Run(2048)
		h.Checker.CheckNow()

		// The TDM law makes per-word latency a constant, checked per
		// undisturbed flow; complete delivery within the closed-form
		// budget is the attained-bandwidth check.
		pr.Delivered = delivered()
		for _, fl := range flows {
			if !disturbed && fl.Conn.State == core.Open {
				h.CheckLatency(fl, fail)
			}
		}

		// Teardown: detach the generators before their channels are
		// freed, close the phase and verify the allocator returned to
		// its pre-phase state bit for bit.
		for _, fl := range flows {
			fl.Src.Detach()
		}
		for _, fl := range flows {
			for _, k := range fl.Sinks {
				k.Detach()
			}
		}
		for _, fl := range flows {
			if fl.Conn.State == core.Closed {
				// A failed repair tears the stalled connection down
				// before re-admission; when re-admission finds no spare
				// capacity the tear-down stands and there is nothing
				// left to close.
				continue
			}
			if err := p.Close(fl.Conn); err != nil {
				return nil, fmt.Errorf("workload: phase %s: close %s: %w", ph.Name, fl.Name, err)
			}
		}
		if _, err := p.CompleteConfig(5_000_000); err != nil {
			return nil, fmt.Errorf("workload: phase %s: settle teardown: %w", ph.Name, err)
		}
		h.Checker.Resync()
		if !disturbed && p.Alloc.Fingerprint() != preFP {
			fail("teardown did not restore allocator occupancy (pre %016x, post %016x)", preFP, p.Alloc.Fingerprint())
		}

		pr.Cycles = p.Cycle() - pr.StartCycle
		pr.Forwarded = totalForwarded() - startForwarded
		res.Opened += pr.Opened
		res.Delivered += pr.Delivered
		res.Failures = append(res.Failures, pr.Failures...)
		res.Phases = append(res.Phases, pr)
	}
	h.Finish(&res.Result)
	return res, nil
}
