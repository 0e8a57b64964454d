package workload

import (
	"fmt"

	"daelite/internal/conformance"
	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/sim"
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

// Result is the outcome of a pack run.
type Result struct {
	Pack        string
	FastForward bool
	Phases      []PhaseResult
	// Opened counts admitted connections across all phases; Delivered
	// sums every sink.
	Opened    int
	Delivered uint64
	// Violations is the invariant checkers' total count.
	Violations uint64
	// Fingerprint folds every NI output flit, delivery counts and
	// checker verdicts — the bit-exactness witness across runs and
	// fast-forward modes.
	Fingerprint uint64
	// Skipped counts fast-forwarded cycles (outside the fingerprint).
	Skipped  uint64
	Failures []string
}

// Passed reports whether the run was violation- and divergence-free.
func (r *Result) Passed() bool { return r.Violations == 0 && len(r.Failures) == 0 }

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

// Run executes a compiled pack phase by phase with the conformance
// checkers attached, checking every phase against the analytical model:
// link occupancy bit-for-bit, exact single-path and multicast latency,
// complete delivery within the closed-form bandwidth bound, and
// occupancy restoration after teardown. The entire run folds into a
// fingerprint that must be bit-identical across runs and fast-forward
// on/off.
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
	ck := conformance.Attach(p, reg, conformance.Options{LineRate: true})
	model := conformance.NewModel(p)
	res := &Result{Pack: c.Name(), FastForward: opt.FastForward}

	var fp sim.Fingerprint
	for _, id := range p.Mesh.AllNIs {
		w := p.NI(id).OutputWire()
		p.Sim.AddProbe(func(cycle uint64) {
			if f := w.Get(); f.Valid {
				fp = fp.Mix(uint64(f.Data))
				fp = fp.Mix(cycle)
			}
		})
	}

	node := func(co spec.Coord) topology.NodeID { return p.Mesh.NI(co.X, co.Y, co.NI) }
	totalForwarded := func() uint64 {
		var n uint64
		for _, rt := range p.Routers {
			n += rt.Forwarded()
		}
		return n
	}
	wheel := p.Params.Wheel
	var hmon *core.HealthMonitor

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

		// Admission: the whole phase opens as one batch, exactly like an
		// application would request it.
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
			if conns[i] == nil || errs[i] != nil {
				conns[i] = nil
				pr.NoFit++ // interior-path contention; the nominal demand is admissible
				continue
			}
			pr.Opened++
		}
		if _, err := p.CompleteConfig(5_000_000); err != nil {
			return nil, fmt.Errorf("workload: phase %s: settle setup: %w", ph.Name, err)
		}
		live := make([]*core.Connection, 0, pr.Opened)
		for _, cn := range conns {
			if cn == nil {
				continue
			}
			if cn.State == core.Opening {
				cn.State = core.Open
			}
			live = append(live, cn)
		}
		pr.SetupCycles = p.Cycle() - pr.StartCycle
		ck.Resync()

		// Differential 1: the allocator's per-link occupancy must equal
		// the model's closed-form prediction bit for bit.
		occ := model.LinkOccupancy(live)
		for _, l := range p.Mesh.Links() {
			want := occ[l.ID]
			got := p.Alloc.LinkOccupancy(l.ID)
			if got.Bits != want.Bits {
				fail("link %d occupancy: allocator %#x vs model %#x", l.ID, got.Bits, want.Bits)
			}
		}

		// Traffic: every admitted connection gets a bounded saturating
		// source and one sink per destination.
		type phaseSinks struct {
			req   *ConnReq
			conn  *core.Connection
			sinks []*traffic.Sink
		}
		var srcs []*traffic.Source
		var flows []*phaseSinks
		var expected uint64
		var budget uint64 = phaseBudget(ph, wheel)
		for i, cn := range conns {
			if cn == nil {
				continue
			}
			req := &ph.Conns[i]
			srcs = append(srcs, traffic.NewSource(p.Sim, fmt.Sprintf("p%d.src%d", pi, i), p.NI(cn.Spec.Src), cn.SrcChannel,
				traffic.SourceConfig{Pattern: traffic.CBR, Rate: 1.0, Limit: req.Words, Seed: c.Spec.Seed ^ uint64(pi)<<20 ^ uint64(i)}))
			fl := &phaseSinks{req: req, conn: cn}
			if cn.Tree != nil {
				for j, d := range cn.Spec.Dsts {
					fl.sinks = append(fl.sinks, traffic.NewSink(p.Sim, fmt.Sprintf("p%d.sink%d.%d", pi, i, j), p.NI(d), cn.DstChannels[d]))
					expected += req.Words
				}
			} else {
				fl.sinks = append(fl.sinks, traffic.NewSink(p.Sim, fmt.Sprintf("p%d.sink%d", pi, i), p.NI(cn.Spec.Dst), cn.DstChannel))
				expected += req.Words
			}
			pr.Words += req.Words * uint64(len(fl.sinks))
			flows = append(flows, fl)
		}

		// Chaos: kill a routed link partway into the phase and let the
		// health monitor repair around it.
		if opt.ChaosEvery > 0 && (pi+1)%opt.ChaosEvery == 0 {
			var victim topology.LinkID = -1
			for _, fl := range flows {
				if fl.conn.Fwd != nil && len(fl.conn.Fwd.Paths[0].Path) >= 3 {
					victim = fl.conn.Fwd.Paths[0].Path[1]
					break
				}
				if fl.conn.Tree != nil {
					// Prefer a router-owned hop: an NI injection link has
					// no alternative route, so killing it is unrepairable.
					for _, e := range fl.conn.Tree.Edges {
						if p.Routers[p.Mesh.Graph.Link(e.Link).From] != nil {
							victim = e.Link
							break
						}
					}
					if victim >= 0 {
						break
					}
				}
			}
			if victim >= 0 {
				// Land the fault inside the transfer window, not the
				// settle tail: a quarter of the closed-form worst-case
				// drain time in, so the slowest flow is still
				// mid-stream when the link dies.
				disrupt := (budget - 8192) / 16
				if disrupt < 64 {
					disrupt = 64
				}
				at := p.Cycle() + disrupt
				if _, err := fault.Attach(p, c.Spec.Seed^uint64(pi), fault.Fault{Kind: fault.LinkDown, Link: victim, From: at}); err != nil {
					return nil, fmt.Errorf("workload: phase %s: fault attach: %w", ph.Name, err)
				}
				if hmon == nil {
					hmon = core.NewHealthMonitor(p, 256)
				}
				pr.Faulted = true
			}
		}

		// Drive the phase in fixed chunks until it drains or the budget
		// runs out; all progress decisions land on chunk boundaries, so
		// they are identical across worker counts and execution modes.
		delivered := func() uint64 {
			var n uint64
			for _, fl := range flows {
				for _, k := range fl.sinks {
					n += k.Received()
				}
			}
			return n
		}
		done := func() bool {
			for _, s := range srcs {
				if !s.Done() {
					return false
				}
			}
			return delivered() == expected
		}
		deadline := p.Cycle() + budget
		for p.Cycle() < deadline && !done() {
			step := uint64(256)
			if rest := deadline - p.Cycle(); rest < step {
				step = rest
			}
			p.Run(step)
			if hmon != nil && len(hmon.Stalled()) > 0 {
				repairs, err := p.RepairStalled(hmon, 1_000_000)
				if err != nil {
					// Deterministically unrepairable: run degraded.
					hmon = nil
				}
				for _, r := range repairs {
					if r.Conn == nil {
						continue
					}
					for _, fl := range flows {
						if fl.conn.ID == r.OldID {
							fl.conn = r.Conn
							pr.Repaired++
						}
					}
				}
				ck.Resync()
			}
		}
		pr.Drained = done()
		pr.DrainCycles = p.Cycle() - pr.StartCycle
		disturbed := pr.Faulted || pr.Repaired > 0
		if !pr.Drained && !disturbed {
			fail("did not drain: %d/%d words within %d-cycle budget", delivered(), expected, budget)
		}

		// Settled tail: fixed, and long enough for fast-forward to skip
		// once the bounded sources are done.
		p.Run(2048)
		ck.CheckNow()

		// Differentials 2 and 3: the TDM law makes per-word latency a
		// constant — single-path unicast and every multicast destination
		// must hit the model's figure exactly — and complete delivery
		// within the closed-form budget is the attained-bandwidth check.
		for _, fl := range flows {
			cn := fl.conn
			for _, k := range fl.sinks {
				pr.Delivered += k.Received()
			}
			if disturbed || cn.State != core.Open {
				continue
			}
			if cn.Tree == nil {
				st := fl.sinks[0].Stats()
				if st.Count == 0 {
					fail("conn %s: no deliveries", fl.req.Name)
					continue
				}
				lat := model.UnicastLatency(cn)
				if len(cn.Fwd.Paths) == 1 {
					if st.MinLat != lat.NetMin || st.MaxLat != lat.NetMax {
						fail("conn %s: net latency [%d,%d], model law says exactly %d",
							fl.req.Name, st.MinLat, st.MaxLat, lat.NetMin)
					}
				} else if st.MinLat < lat.NetMin || st.MaxLat > lat.NetMax {
					fail("conn %s: net latency [%d,%d] outside model [%d,%d]",
						fl.req.Name, st.MinLat, st.MaxLat, lat.NetMin, lat.NetMax)
				}
			} else {
				for j, d := range cn.Spec.Dsts {
					st := fl.sinks[j].Stats()
					if st.Count == 0 {
						fail("conn %s dst %d: no deliveries", fl.req.Name, d)
						continue
					}
					net := model.MulticastNet(cn, d)
					if st.MinLat != net || st.MaxLat != net {
						fail("conn %s dst %d: net latency [%d,%d], model law says exactly %d",
							fl.req.Name, d, st.MinLat, st.MaxLat, net)
					}
				}
			}
		}

		// Teardown: detach the generators before their channels are
		// freed, close the phase and verify the allocator returned to
		// its pre-phase state bit for bit.
		for _, s := range srcs {
			s.Detach()
		}
		for _, fl := range flows {
			for _, k := range fl.sinks {
				k.Detach()
			}
		}
		for _, fl := range flows {
			if fl.conn.State == core.Closed {
				// A failed repair tears the stalled connection down
				// before re-admission; when re-admission finds no spare
				// capacity the tear-down stands and there is nothing
				// left to close.
				continue
			}
			if err := p.Close(fl.conn); err != nil {
				return nil, fmt.Errorf("workload: phase %s: close %s: %w", ph.Name, fl.req.Name, err)
			}
		}
		if _, err := p.CompleteConfig(5_000_000); err != nil {
			return nil, fmt.Errorf("workload: phase %s: settle teardown: %w", ph.Name, err)
		}
		ck.Resync()
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

	res.Violations = ck.Violations()
	for _, v := range ck.Recorded() {
		res.Failures = append(res.Failures, fmt.Sprintf("violation @%d %s: %s", v.Cycle, v.Check, v.Detail))
	}
	fp = fp.Mix(res.Delivered)
	fp = fp.Mix(res.Violations)
	res.Fingerprint = fp.Sum()
	res.Skipped = p.Sim.SkippedCycles()
	return res, nil
}
