package conformance

// Deterministic randomized scenarios: each seed expands — through the
// repository's own seeded RNG — into a platform shape, a connection
// set with optional multicast and churn, and a traffic schedule. The
// runner executes the scenario with the invariant checkers attached and
// performs the sim-vs-model differential checks: link occupancy must
// match the model bit for bit, single-path traversal latency must equal
// the closed-form constant exactly, end-to-end latency must stay under
// the scheduling bound, and saturated connections must attain the
// reserved bandwidth within the model's ramp slack. The whole run folds
// into a fingerprint, so executing one scenario under different kernel
// worker counts must produce bit-identical results.

import (
	"fmt"

	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/sim"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// connPlan is one planned connection of a scenario.
type connPlan struct {
	src   topology.NodeID
	dsts  []topology.NodeID // len 1: unicast; more: multicast
	slots int
	rate  float64 // words/cycle offered; 0 saturates the reservation
	close bool    // churn: closed halfway through the run
}

// Scenario is one generated conformance scenario.
type Scenario struct {
	Seed          uint64
	Width, Height int
	Wheel         int
	Cycles        uint64
	Plans         []connPlan
	FaultLink     bool // kill one used link mid-run and repair around it
}

// String summarizes the scenario for reports.
func (sc *Scenario) String() string {
	mc, churn := 0, 0
	for _, pl := range sc.Plans {
		if len(pl.dsts) > 1 {
			mc++
		}
		if pl.close {
			churn++
		}
	}
	return fmt.Sprintf("%dx%d wheel=%d conns=%d mcast=%d churn=%d fault=%v cycles=%d",
		sc.Width, sc.Height, sc.Wheel, len(sc.Plans), mc, churn, sc.FaultLink, sc.Cycles)
}

// Generate expands a seed into a scenario. The expansion only consumes
// the seeded RNG, so a seed fully determines the scenario.
func Generate(seed uint64) *Scenario {
	rng := sim.NewRNG(seed)
	sc := &Scenario{
		Seed:   seed,
		Width:  2 + rng.Intn(3),
		Height: 2 + rng.Intn(3),
		Wheel:  []int{8, 16, 32}[rng.Intn(3)],
		Cycles: uint64(2500 + 500*rng.Intn(3)),
	}
	// Plans address NIs by flat index; Run resolves them on the mesh.
	n := sc.Width * sc.Height
	pick := func() int { return rng.Intn(n) }
	nconns := 2 + rng.Intn(3)
	for i := 0; i < nconns; i++ {
		src := pick()
		dst := pick()
		for dst == src {
			dst = pick()
		}
		pl := connPlan{
			src:   topology.NodeID(src), // NI index; resolved at build time
			dsts:  []topology.NodeID{topology.NodeID(dst)},
			slots: 1 + rng.Intn(2),
			rate:  []float64{0, 0.02, 0.01}[rng.Intn(3)],
		}
		if i > 0 && rng.Intn(4) == 0 {
			pl.close = true
		}
		sc.Plans = append(sc.Plans, pl)
	}
	if n >= 4 && rng.Intn(2) == 0 {
		src := pick()
		var dsts []topology.NodeID
		seen := map[int]bool{src: true}
		for len(dsts) < 2 {
			d := pick()
			if seen[d] {
				continue
			}
			seen[d] = true
			dsts = append(dsts, topology.NodeID(d))
		}
		sc.Plans = append(sc.Plans, connPlan{
			src:   topology.NodeID(src),
			dsts:  dsts,
			slots: 1,
			rate:  0.02,
		})
	}
	if rng.Intn(4) == 0 {
		sc.FaultLink = true
	}
	return sc
}

// Result is the outcome of one scenario run.
type Result struct {
	Scenario *Scenario
	// Fingerprint folds every NI output flit, every delivery count and
	// the checker verdicts — the bit-exactness witness across runs and
	// fast-forward modes.
	Fingerprint uint64
	// Violations is the checkers' total violation count (zero for a
	// healthy platform).
	Violations uint64
	// Opened counts connections that were actually admitted.
	Opened int
	// Delivered sums words delivered to all sinks.
	Delivered uint64
	// Skipped counts fast-forwarded cycles (0 unless the run used
	// RunFastForward). Deliberately outside the fingerprint: a
	// fast-forwarded run must fingerprint identically to an accurate one.
	Skipped uint64
	// Failures lists differential-check failures (empty on pass).
	Failures []string
}

// Passed reports whether the run was violation- and divergence-free.
func (r *Result) Passed() bool { return r.Violations == 0 && len(r.Failures) == 0 }

type runConn struct {
	plan  connPlan
	conn  *core.Connection
	srcs  []*traffic.Source
	sinks []*traffic.Sink
}

// Run executes a scenario on a fresh platform and returns the measured
// result.
func Run(sc *Scenario) (*Result, error) {
	return run(sc, false)
}

// RunFastForward executes a scenario with model-guided fast-forwarding
// armed. The result — fingerprint, verdicts, deliveries — must be
// bit-identical to Run's; only Skipped differs.
func RunFastForward(sc *Scenario) (*Result, error) {
	return run(sc, true)
}

func run(sc *Scenario, ff bool) (*Result, error) {
	res := &Result{Scenario: sc}
	params := core.DefaultParams()
	params.Wheel = sc.Wheel
	params.FastForward = ff
	spec := topology.MeshSpec{Width: sc.Width, Height: sc.Height, NIsPerRouter: 1}
	p, err := core.NewMeshPlatform(spec, params, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("conformance: build %dx%d: %w", sc.Width, sc.Height, err)
	}
	reg := telemetry.NewRegistry()
	ck := Attach(p, reg, Options{LineRate: true})
	model := NewModel(p)

	// The generator planned NI indices; resolve them on the real mesh.
	ni := func(idx topology.NodeID) topology.NodeID {
		i := int(idx)
		return p.Mesh.NI(i%sc.Width, (i/sc.Width)%sc.Height, 0)
	}

	var fp sim.Fingerprint
	for _, id := range p.Mesh.AllNIs {
		wire := p.NI(id).OutputWire()
		w := wire
		p.Sim.AddProbe(func(cycle uint64) {
			if f := w.Get(); f.Valid {
				fp = fp.Mix(uint64(f.Data))
				fp = fp.Mix(cycle)
			}
		})
	}

	var runs []*runConn
	for _, pl := range sc.Plans {
		cs := core.ConnectionSpec{Src: ni(pl.src), SlotsFwd: pl.slots}
		if len(pl.dsts) == 1 {
			cs.Dst = ni(pl.dsts[0])
		} else {
			for _, d := range pl.dsts {
				cs.Dsts = append(cs.Dsts, ni(d))
			}
		}
		c, err := p.Open(cs)
		if err != nil {
			continue // capacity exhausted: a valid draw, skip the plan
		}
		if err := p.AwaitOpen(c, 1_000_000); err != nil {
			return nil, fmt.Errorf("conformance: await open: %w", err)
		}
		runs = append(runs, &runConn{plan: pl, conn: c})
		res.Opened++
	}
	ck.Resync()

	// Traffic: saturating CBR on rate-0 plans (bandwidth differential),
	// light CBR otherwise (latency differential).
	for i, rc := range runs {
		rate := rc.plan.rate
		reserved := model.Bandwidth(rc.conn)
		if rate == 0 {
			rate = 1.0
		} else if rate > reserved/2 {
			rate = reserved / 2
		}
		src := traffic.NewSource(p.Sim, fmt.Sprintf("src%d", i), p.NI(rc.conn.Spec.Src),
			rc.conn.SrcChannel, traffic.SourceConfig{Pattern: traffic.CBR, Rate: rate, Seed: sc.Seed + uint64(i)})
		rc.srcs = append(rc.srcs, src)
		if rc.conn.Tree != nil {
			j := 0
			for _, d := range rc.conn.Spec.Dsts {
				rc.sinks = append(rc.sinks, traffic.NewSink(p.Sim,
					fmt.Sprintf("sink%d.%d", i, j), p.NI(d), rc.conn.DstChannels[d]))
				j++
			}
		} else {
			rc.sinks = append(rc.sinks, traffic.NewSink(p.Sim,
				fmt.Sprintf("sink%d", i), p.NI(rc.conn.Spec.Dst), rc.conn.DstChannel))
		}
	}

	// Optional fault: kill a link used by a connection at mid-run, let
	// the health monitor spot the stall and repair around it.
	var hmon *core.HealthMonitor
	faulted := false
	if sc.FaultLink {
		var victim topology.LinkID = -1
		for _, rc := range runs {
			if rc.plan.close || rc.conn.Fwd == nil {
				continue
			}
			path := rc.conn.Fwd.Paths[0].Path
			if len(path) >= 3 {
				victim = path[1] // a router-to-router hop, repairable
				break
			}
		}
		if victim >= 0 {
			at := p.Cycle() + sc.Cycles/3
			if _, err := fault.Attach(p, sc.Seed, fault.Fault{Kind: fault.LinkDown, Link: victim, From: at}); err != nil {
				return nil, fmt.Errorf("conformance: fault attach: %w", err)
			}
			hmon = core.NewHealthMonitor(p, 256)
			faulted = true
		}
	}

	// Run with churn: closing plans are torn down halfway through.
	half := sc.Cycles / 2
	runChunk := func(n uint64) error {
		end := p.Cycle() + n
		for p.Cycle() < end {
			step := uint64(256)
			if rest := end - p.Cycle(); rest < step {
				step = rest
			}
			p.Run(step)
			if hmon != nil && len(hmon.Stalled()) > 0 {
				repairs, err := p.RepairStalled(hmon, 1_000_000)
				if err != nil {
					// Deterministically unrepairable (no spare
					// capacity): keep running degraded.
					hmon = nil
				}
				// Repair closes the stalled connection and opens a
				// replacement with a fresh ID; follow the pointer so
				// traffic bookkeeping and the end-of-run differential
				// see the live connection, not the corpse.
				for _, r := range repairs {
					if r.Conn == nil {
						continue
					}
					for _, rc := range runs {
						if rc.conn.ID == r.OldID {
							rc.conn = r.Conn
						}
					}
				}
				ck.Resync()
			}
		}
		return nil
	}
	if err := runChunk(half); err != nil {
		return nil, err
	}
	for _, rc := range runs {
		if !rc.plan.close {
			continue
		}
		if err := p.Close(rc.conn); err != nil {
			return nil, fmt.Errorf("conformance: close: %w", err)
		}
	}
	if _, err := p.CompleteConfig(1_000_000); err != nil {
		return nil, fmt.Errorf("conformance: settle teardown: %w", err)
	}
	ck.Resync()
	if err := runChunk(sc.Cycles - half); err != nil {
		return nil, err
	}
	ck.CheckNow()

	// Differential checks against the model.
	fail := func(format string, args ...interface{}) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
	conns := make([]*core.Connection, 0, len(runs))
	for _, rc := range runs {
		if rc.conn.State == core.Open {
			conns = append(conns, rc.conn)
		}
	}
	occ := model.LinkOccupancy(conns)
	for _, l := range p.Mesh.Links() {
		want := occ[l.ID]
		got := p.Alloc.LinkOccupancy(l.ID)
		if got.Bits != want.Bits {
			fail("link %d occupancy: allocator %#x vs model %#x", l.ID, got.Bits, want.Bits)
		}
	}
	w := uint64(params.SlotWords)
	for _, rc := range runs {
		c := rc.conn
		for _, sink := range rc.sinks {
			res.Delivered += sink.Received()
		}
		// Churned or repaired connections measured across epochs; the
		// per-word differential only applies to undisturbed ones.
		if rc.plan.close || faulted || c.State != core.Open {
			continue
		}
		if c.Tree == nil {
			lat := model.UnicastLatency(c)
			st := rc.sinks[0].Stats()
			if st.Count == 0 {
				fail("conn %d: no deliveries", c.ID)
				continue
			}
			if len(c.Fwd.Paths) == 1 {
				if st.MinLat != lat.NetMin || st.MaxLat != lat.NetMax {
					fail("conn %d: net latency [%d,%d], model law says exactly %d",
						c.ID, st.MinLat, st.MaxLat, lat.NetMin)
				}
			} else if st.MinLat < lat.NetMin || st.MaxLat > lat.NetMax {
				fail("conn %d: net latency [%d,%d] outside model [%d,%d]",
					c.ID, st.MinLat, st.MaxLat, lat.NetMin, lat.NetMax)
			}
			if rc.plan.rate > 0 {
				// Light offered load: end-to-end bound holds per word.
				bound := lat.E2EMax(w * uint64(params.Wheel))
				if got := rc.sinks[0].TotalStats().MaxLat; got > bound {
					fail("conn %d: e2e latency %d exceeds model bound %d", c.ID, got, bound)
				}
			}
		} else {
			for j, d := range c.Spec.Dsts {
				st := rc.sinks[j].Stats()
				if st.Count == 0 {
					fail("conn %d dst %d: no deliveries", c.ID, d)
					continue
				}
				net := model.MulticastNet(c, d)
				if st.MinLat != net || st.MaxLat != net {
					fail("conn %d dst %d: net latency [%d,%d], model law says exactly %d",
						c.ID, d, st.MinLat, st.MaxLat, net)
				}
			}
		}
		if rc.plan.rate == 0 {
			// Saturated: attained bandwidth must meet the reservation.
			expect := model.Bandwidth(c) * float64(sc.Cycles)
			slack := model.DeliverySlack(c)
			got := float64(rc.sinks[0].Received())
			if got < expect-slack || got > expect+slack {
				fail("conn %d: attained %v words, model %v±%v", c.ID, got, expect, slack)
			}
		}
	}
	res.Violations = ck.Violations()
	for _, v := range ck.Recorded() {
		fail("violation @%d %s: %s", v.Cycle, v.Check, v.Detail)
	}

	// Fold deliveries and verdicts into the fingerprint.
	fp = fp.Mix(res.Delivered)
	fp = fp.Mix(res.Violations)
	res.Fingerprint = fp.Sum()
	res.Skipped = p.Sim.SkippedCycles()
	return res, nil
}
