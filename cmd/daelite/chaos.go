package main

import (
	"flag"
	"fmt"
	"io"

	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/report"
	"daelite/internal/sim"
	"daelite/internal/stats"
	"daelite/internal/traffic"
)

// runChaos soaks a platform under deterministic fault injection and
// online repair: it opens random connections, drives them with CBR
// traffic, kills seeded links mid-run, repairs around them as the health
// monitor detects the stalls, and reports traffic, fault and repair
// statistics. The run is a pure function of -seed.
//
//	daelite chaos -mesh 4x4 -conns 6 -kill 2 -cycles 40000 -seed 7
//
// With -workload the soak executes a workload pack instead, with a
// link-down fault planted in every -chaos-every'th phase.
func runChaos(fs *flag.FlagSet, argv []string, stdout, stderr io.Writer) error {
	var conns, kill, cycles, chaosEvery int
	var seed, timeout, limit uint64
	var expectFP, workloadPath string
	pf := registerPlatformFlags(fs)
	fs.StringVar(&expectFP, "expect-fingerprint", "", "fail (exit non-zero) unless the run's determinism fingerprint equals this hex value")
	fs.StringVar(&workloadPath, "workload", "", "soak this workload pack JSON under per-phase fault injection instead of random CBR streams")
	fs.IntVar(&chaosEvery, "chaos-every", 2, "with -workload: plant a link-down fault in every Nth phase (1 = every phase)")
	fs.IntVar(&conns, "conns", 6, "connections to open")
	fs.IntVar(&kill, "kill", 1, "router-to-router links to kill during the run")
	fs.IntVar(&cycles, "cycles", 40000, "cycles to soak after set-up")
	fs.Uint64Var(&seed, "seed", 1, "seed for connection placement and fault sites")
	fs.Uint64Var(&timeout, "stall-timeout", 256, "health monitor no-progress window (cycles)")
	fs.Uint64Var(&limit, "limit", 0, "words each source sends (0 = unlimited); bounded sources drain and let -fastforward engage")
	if err := parse(fs, argv); err != nil {
		return err
	}

	if workloadPath != "" {
		if chaosEvery < 1 {
			return fmt.Errorf("-chaos-every must be >= 1")
		}
		return runWorkload(stdout, stderr, pf, workloadPath, expectFP, chaosEvery)
	}

	p, err := pf.buildMesh()
	if err != nil {
		return err
	}
	s, err := startSoak(pf, p, stdout)
	if err != nil {
		return err
	}
	defer s.exp.close()
	rng := sim.NewRNG(seed)

	// Random placement, like the contention-freedom soak: keep trying
	// pairs until the requested count is open or capacity runs out.
	type stream struct {
		conn *core.Connection
		src  *traffic.Source
		sink *traffic.Sink
	}
	var streams []stream
	for tries := 0; len(streams) < conns && tries < 20*conns; tries++ {
		from := p.Mesh.AllNIs[rng.Intn(len(p.Mesh.AllNIs))]
		to := p.Mesh.AllNIs[rng.Intn(len(p.Mesh.AllNIs))]
		if from == to {
			continue
		}
		c, err := p.Open(core.ConnectionSpec{Src: from, Dst: to, SlotsFwd: 1 + rng.Intn(2)})
		if err != nil {
			continue
		}
		if err := p.AwaitOpen(c, 1_000_000); err != nil {
			return fmt.Errorf("configure: %w", err)
		}
		src := traffic.NewSource(p.Sim, fmt.Sprintf("src%d", c.ID), p.NI(from), c.SrcChannel,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: 0.02 + 0.02*float64(rng.Intn(3)), Limit: limit, Seed: rng.Uint64()})
		sink := traffic.NewSink(p.Sim, fmt.Sprintf("sink%d", c.ID), p.NI(to), c.DstChannel)
		streams = append(streams, stream{conn: c, src: src, sink: sink})
	}
	if len(streams) == 0 {
		return fmt.Errorf("no connections could be opened")
	}

	// Schedule the fault campaign: kill distinct router-to-router links at
	// evenly spread points of the soak window.
	sites := fault.PickLinks(rng, fault.RouterLinks(p), kill)
	var faults []fault.Fault
	for i, l := range sites {
		at := p.Cycle() + uint64((i+1)*cycles/(len(sites)+1))
		faults = append(faults, fault.Fault{Kind: fault.LinkDown, Link: l, From: at})
	}
	if err := s.inject(rng.Uint64(), timeout, faults...); err != nil {
		return err
	}
	for _, f := range s.inj.Faults() {
		l := p.Mesh.Link(f.Link)
		fmt.Fprintf(stdout, "scheduled: %s (%s)\n", f, nodeNames(p.Mesh.Graph, " -> ", l.From, l.To))
	}
	s.links = stats.NewMonitor(p)

	defer stopOnSignal(p, stderr)()
	s.run(uint64(cycles), stderr)
	for _, r := range s.repairs {
		fmt.Fprintf(stdout, "repaired connection %d -> %d at cycle %d (%d cycles after detection)\n",
			r.OldID, r.NewID, r.DoneCycle, r.DetectToDoneCycles())
	}

	t := report.NewTable(fmt.Sprintf("daelite-chaos — %d cycles, %d streams, %d faults, seed %d",
		cycles, len(streams), len(sites), seed),
		"Connection", "Sent", "Delivered", "In flight", "OoO")
	for _, st := range streams {
		name := nodeNames(p.Mesh.Graph, " -> ", st.conn.Spec.Src, st.conn.Spec.Dst)
		t.AddRow(name, st.src.Sent(), st.sink.Received(),
			st.src.Sent()-st.sink.Received(), st.sink.OutOfOrder())
	}
	return s.finish(stdout, t.Render(), "Link utilization and damage", expectFP)
}
