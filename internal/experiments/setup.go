package experiments

import (
	"fmt"

	"daelite/internal/analysis"
	"daelite/internal/cfgproto"
	"daelite/internal/core"
	"daelite/internal/phit"
	"daelite/internal/report"
	"daelite/internal/slots"
	"daelite/internal/topology"
)

// TableIIISetup regenerates Table III (E3): connection set-up time in
// cycles for daelite (cycle-accurate through the broadcast tree, plus the
// analytic "ideal") versus aelite (cycle-accurate through the network-
// carried register writes, plus an ideal estimate). The paper's headline:
// daelite configuration is roughly one order of magnitude faster, and its
// set-up time depends on path length but not on the number of slots.
func TableIIISetup() (*Result, error) {
	r := newResult("E3", "Table III")
	const wheel = 16
	dp, err := daelitePlatform(4, 4, wheel)
	if err != nil {
		return nil, err
	}
	an, err := aeliteNetwork(4, 4, wheel)
	if err != nil {
		return nil, err
	}

	t := report.NewTable("Table III — connection set-up time (cycles), 4x4 mesh, 16 slots, 2 data slots/connection",
		"Router hops", "daelite ideal", "daelite measured", "aelite ideal", "aelite measured", "speedup")
	type pair struct{ sx, sy, dx, dy int }
	pairs := []pair{
		{0, 1, 1, 1}, // 1 router hop
		{0, 1, 2, 1},
		{0, 1, 3, 1},
		{0, 1, 3, 2},
		{0, 1, 3, 3}, // 5 router hops
	}
	var sumRatio float64
	for i, pr := range pairs {
		hops := i + 1

		src, dst := dp.Mesh.NI(pr.sx, pr.sy, 0), dp.Mesh.NI(pr.dx, pr.dy, 0)
		dc, err := openDaelite(dp, src, dst, 2)
		if err != nil {
			return nil, err
		}
		dMeasured := float64(dc.SetupCycles())
		words := analysis.UnicastSetupCost(dp.Mesh.Graph, dc.Fwd, wheel, nil, 0).
			Add(analysis.UnicastSetupCost(dp.Mesh.Graph, dc.Rev, wheel, nil, 0)).Words
		dIdeal := float64(analysis.SetupCyclesDaeliteIdeal(words, dp.Tree.MaxDepth(), dp.Params.Cooldown))

		asrc, adst := an.Mesh.NI(pr.sx, pr.sy, 0), an.Mesh.NI(pr.dx, pr.dy, 0)
		ac, err := openAelite(an, asrc, adst, 2)
		if err != nil {
			return nil, err
		}
		aMeasured := float64(ac.SetupCycles())
		aIdeal := float64(analysis.SetupCyclesAeliteIdeal(2, 1, hops, wheel, 3))

		ratio := aMeasured / dMeasured
		sumRatio += ratio
		t.AddRow(hops,
			fmt.Sprintf("%.0f", dIdeal), fmt.Sprintf("%.0f", dMeasured),
			fmt.Sprintf("%.0f", aIdeal), fmt.Sprintf("%.0f", aMeasured),
			report.Ratio(ratio))
		r.Metrics[fmt.Sprintf("daelite_measured_h%d", hops)] = dMeasured
		r.Metrics[fmt.Sprintf("aelite_measured_h%d", hops)] = aMeasured
	}
	r.Metrics["mean_speedup"] = sumRatio / float64(len(pairs))

	// Slot-count dependence: daelite set-up is independent of the
	// number of slots, aelite's grows with it.
	t2 := report.NewTable("Set-up time vs slots per connection (3 router hops)",
		"Slots", "daelite measured", "aelite measured")
	dp2, err := daelitePlatform(4, 4, wheel)
	if err != nil {
		return nil, err
	}
	an2, err := aeliteNetwork(4, 4, wheel)
	if err != nil {
		return nil, err
	}
	var dOne, dFour, aOne, aFour float64
	for _, ns := range []int{1, 2, 4} {
		dc, err := openDaelite(dp2, dp2.Mesh.NI(0, 1, 0), dp2.Mesh.NI(3, 1, 0), ns)
		if err != nil {
			return nil, err
		}
		ac, err := openAelite(an2, an2.Mesh.NI(0, 1, 0), an2.Mesh.NI(3, 1, 0), ns)
		if err != nil {
			return nil, err
		}
		t2.AddRow(ns, dc.SetupCycles(), ac.SetupCycles())
		switch ns {
		case 1:
			dOne, aOne = float64(dc.SetupCycles()), float64(ac.SetupCycles())
		case 4:
			dFour, aFour = float64(dc.SetupCycles()), float64(ac.SetupCycles())
		}
	}
	r.Metrics["daelite_slot_sensitivity"] = dFour / dOne
	r.Metrics["aelite_slot_sensitivity"] = aFour / aOne
	r.Text = t.Render() + "\n" + t2.Render()
	return r, nil
}

// Fig6PathSetup regenerates the Fig. 6 example (E9) on real hardware
// models: the path NI10-R10-R11-NI11 with destination slots {4,7} on an
// 8-slot wheel, checking every slot table the packet touches and
// measuring the set-up through the configuration tree.
func Fig6PathSetup() (*Result, error) {
	r := newResult("E9", "Fig. 6")
	p, err := daelitePlatform(2, 2, 8)
	if err != nil {
		return nil, err
	}
	// The paper's path: NI10 -> R10 -> R11 -> NI11.
	src := p.Mesh.NI(1, 0, 0)
	dst := p.Mesh.NI(1, 1, 0)
	srcCh, dstCh := 0, 0

	// Build the exact packet of the figure: destination slots {4,7}.
	g := p.Mesh.Graph
	path := g.ShortestPath(src, dst)
	if len(path) != 3 {
		return nil, fmt.Errorf("fig6: expected 3-link path, got %d", len(path))
	}
	inject := slots.MaskOf(8, 1, 4) // destination view {4,7} = inject {1,4}
	pkt := cfgproto.PathSetup{Mask: inject.RotateUp(3)}
	pkt.Pairs = []cfgproto.Pair{
		{Element: int(dst), Spec: cfgproto.NISpec(false, true, dstCh)},
		{Element: int(g.Link(path[2]).From), Spec: cfgproto.RouterSpec(g.Link(path[1]).ToPort, g.Link(path[2]).FromPort)},
		{Element: int(g.Link(path[1]).From), Spec: cfgproto.RouterSpec(g.Link(path[0]).ToPort, g.Link(path[1]).FromPort)},
		{Element: int(src), Spec: cfgproto.NISpec(true, true, srcCh)},
	}
	words, err := pkt.Words()
	if err != nil {
		return nil, err
	}
	start := p.Cycle()
	if err := p.Host.SubmitPacket(words); err != nil {
		return nil, err
	}
	done, err := p.CompleteConfig(10000)
	if err != nil {
		return nil, err
	}

	t := report.NewTable("Fig. 6 — path set-up example NI10-R10-R11-NI11, slots {4,7} at the destination",
		"Element", "Expected slots", "Configured slots")
	check := func(name string, want []int, got []int) {
		t.AddRow(name, fmt.Sprint(want), fmt.Sprint(got))
	}
	niDst := p.NI(dst)
	var dstSlots []int
	for s := 0; s < 8; s++ {
		if _, ok := niDst.Table().Receive(s); ok {
			dstSlots = append(dstSlots, s)
		}
	}
	check("NI-11 (receive)", []int{4, 7}, dstSlots)

	r11 := p.Router(g.Link(path[2]).From)
	var r11Slots []int
	for s := 0; s < 8; s++ {
		if r11.Table().Input(g.Link(path[2]).FromPort, s) != slots.NoInput {
			r11Slots = append(r11Slots, s)
		}
	}
	check("R-11 (in 1 -> out 2)", []int{3, 6}, r11Slots)

	r10 := p.Router(g.Link(path[1]).From)
	var r10Slots []int
	for s := 0; s < 8; s++ {
		if r10.Table().Input(g.Link(path[1]).FromPort, s) != slots.NoInput {
			r10Slots = append(r10Slots, s)
		}
	}
	check("R-10 (in 2 -> out 1)", []int{2, 5}, r10Slots)

	niSrc := p.NI(src)
	var srcSlots []int
	for s := 0; s < 8; s++ {
		if _, ok := niSrc.Table().Send(s); ok {
			srcSlots = append(srcSlots, s)
		}
	}
	check("NI-10 (send)", []int{1, 4}, srcSlots)

	// Verify delivery end to end after opening flags/credits manually.
	wr, err := cfgproto.WriteRegPacket([]cfgproto.RegWrite{
		{Element: int(src), Reg: cfgproto.RegSelect(cfgproto.RegCredit, srcCh), Value: 32},
		{Element: int(src), Reg: cfgproto.RegSelect(cfgproto.RegFlags, srcCh), Value: cfgproto.FlagOpen},
		{Element: int(dst), Reg: cfgproto.RegSelect(cfgproto.RegFlags, dstCh), Value: cfgproto.FlagOpen},
	})
	if err != nil {
		return nil, err
	}
	if err := p.Host.SubmitPacket(wr); err != nil {
		return nil, err
	}
	if _, err := p.CompleteConfig(10000); err != nil {
		return nil, err
	}
	niSrc.Send(srcCh, phit.Word(0xF16))
	p.Run(64)
	d, ok := niDst.Recv(dstCh)
	if !ok || d.Word != 0xF16 {
		return nil, fmt.Errorf("fig6: delivery over the configured path failed")
	}
	t.AddRow("delivery check", "0xf16", fmt.Sprintf("%#x", uint32(d.Word)))

	r.Text = t.Render()
	r.Metrics["setup_cycles"] = float64(done - start)
	r.Metrics["setup_words"] = float64(len(words))
	r.Metrics["host_words_32bit"] = float64(len(cfgproto.Pack32(words)))
	return r, nil
}

// PartialReconfig (A9) measures the pay-off of partial-path set-up on a
// live tree: grafting one more destination onto a running multicast
// connection costs a single small packet — far less than setting the tree
// up from scratch — and the running stream is never interrupted.
func PartialReconfig() (*Result, error) {
	r := newResult("A9", "ablation: partial-path reconfiguration (Fig. 7)")
	p, err := daelitePlatform(3, 3, 16)
	if err != nil {
		return nil, err
	}
	d1 := p.Mesh.NI(2, 0, 0)
	d2 := p.Mesh.NI(2, 2, 0)
	d3 := p.Mesh.NI(0, 2, 0)
	c, err := p.Open(core.ConnectionSpec{
		Src: p.Mesh.NI(1, 1, 0), Dsts: []topology.NodeID{d1}, SlotsFwd: 2,
	})
	if err != nil {
		return nil, err
	}
	if err := p.AwaitOpen(c, 100000); err != nil {
		return nil, err
	}
	fullSetup := c.SetupCycles()

	t := report.NewTable("Partial reconfiguration of a live multicast tree (16 slots, 3x3 mesh)",
		"Operation", "Cycles")
	t.AddRow("initial tree set-up (1 destination)", fullSetup)
	for i, d := range []topology.NodeID{d2, d3} {
		start := p.Cycle()
		if err := p.AddMulticastDestination(c, d); err != nil {
			return nil, err
		}
		done, err := p.CompleteConfig(100000)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("graft destination %d (partial path)", i+2), done-start)
		r.Metrics[fmt.Sprintf("graft_%d", i+2)] = float64(done - start)
	}
	r.Metrics["full_setup"] = float64(fullSetup)
	r.Text = t.Render() + "\nGrafting uses a partial-path packet (router-rooted segment), the mechanism Fig. 7 describes; the running stream is undisturbed (see TestMulticastGrowShrink).\n"
	return r, nil
}
