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
// into a fingerprint, so executing one scenario twice must produce
// bit-identical results. The run goes through the shared differential
// harness (harness.go), as workload packs do.

import (
	"fmt"

	"daelite/internal/core"
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

// Run executes a scenario cycle-accurately on a fresh platform and
// returns the measured result.
func Run(sc *Scenario) (*Result, error) {
	res := &Result{}
	params := core.DefaultParams()
	params.Wheel = sc.Wheel
	spec := topology.MeshSpec{Width: sc.Width, Height: sc.Height, NIsPerRouter: 1}
	p, err := core.NewMeshPlatform(spec, params, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("conformance: build %dx%d: %w", sc.Width, sc.Height, err)
	}
	h := NewHarness(p, telemetry.NewRegistry())

	// The generator planned NI indices; resolve them on the real mesh.
	ni := func(idx topology.NodeID) topology.NodeID {
		i := int(idx)
		return p.Mesh.NI(i%sc.Width, (i/sc.Width)%sc.Height, 0)
	}

	var plans []connPlan
	var conns []*core.Connection
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
		plans = append(plans, pl)
		conns = append(conns, c)
		res.Opened++
	}
	h.Checker.Resync()

	// Traffic: saturating CBR on rate-0 plans (bandwidth differential),
	// light CBR otherwise (latency differential).
	flows := make([]*Flow, len(conns))
	for i, c := range conns {
		rate := plans[i].rate
		reserved := h.Model.Bandwidth(c)
		if rate == 0 {
			rate = 1.0
		} else if rate > reserved/2 {
			rate = reserved / 2
		}
		flows[i] = h.AddFlow(fmt.Sprint(c.ID), "", i, c,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: rate, Seed: sc.Seed + uint64(i)})
	}

	// Optional fault: kill a link used by a connection at mid-run, let
	// the health monitor spot the stall and repair around it.
	faulted := false
	if sc.FaultLink {
		var kept []*core.Connection
		for i, c := range conns {
			if !plans[i].close {
				kept = append(kept, c)
			}
		}
		if victim := Victim(p, kept); victim >= 0 {
			if err := h.KillLink(sc.Seed, victim, p.Cycle()+sc.Cycles/3); err != nil {
				return nil, fmt.Errorf("conformance: fault attach: %w", err)
			}
			faulted = true
		}
	}

	// Run with churn: closing plans are torn down halfway through.
	half := sc.Cycles / 2
	h.Drive(flows, p.Cycle()+half, nil)
	for i, fl := range flows {
		if !plans[i].close {
			continue
		}
		if err := p.Close(fl.Conn); err != nil {
			return nil, fmt.Errorf("conformance: close: %w", err)
		}
	}
	if _, err := p.CompleteConfig(1_000_000); err != nil {
		return nil, fmt.Errorf("conformance: settle teardown: %w", err)
	}
	h.Checker.Resync()
	h.Drive(flows, p.Cycle()+sc.Cycles-half, nil)
	h.Checker.CheckNow()

	// Differential checks against the model.
	fail := func(format string, args ...interface{}) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
	w := uint64(params.SlotWords)
	for i, fl := range flows {
		c := fl.Conn
		res.Delivered += fl.Received()
		// Churned or repaired connections measured across epochs; the
		// per-word differential only applies to undisturbed ones.
		if plans[i].close || faulted || c.State != core.Open {
			continue
		}
		if !h.CheckLatency(fl, fail) {
			continue
		}
		if c.Tree == nil && plans[i].rate > 0 {
			// Light offered load: end-to-end bound holds per word.
			bound := h.Model.UnicastLatency(c).E2EMax(w * uint64(params.Wheel))
			if got := fl.Sinks[0].TotalStats().MaxLat; got > bound {
				fail("conn %d: e2e latency %d exceeds model bound %d", c.ID, got, bound)
			}
		}
		if plans[i].rate == 0 {
			// Saturated: attained bandwidth must meet the reservation.
			expect := h.Model.Bandwidth(c) * float64(sc.Cycles)
			slack := h.Model.DeliverySlack(c)
			got := float64(fl.Sinks[0].Received())
			if got < expect-slack || got > expect+slack {
				fail("conn %d: attained %v words, model %v±%v", c.ID, got, expect, slack)
			}
		}
	}
	h.Finish(res)
	return res, nil
}
