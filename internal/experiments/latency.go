package experiments

import (
	"fmt"

	"daelite/internal/aelite"
	"daelite/internal/analysis"
	"daelite/internal/core"
	"daelite/internal/phit"
	"daelite/internal/report"
	"daelite/internal/slots"
	"daelite/internal/traffic"
)

// TraversalLatency regenerates the 33 %-latency claim (E4): router-and-
// link traversal takes 2 cycles in daelite versus 3 in aelite, measured
// end to end over paths of 1..5 router hops in both cycle-accurate
// models.
func TraversalLatency() (*Result, error) {
	r := newResult("E4", "latency claim (Section V)")
	t := report.NewTable("Network traversal latency (cycles), measured per word",
		"Router hops", "daelite measured", "daelite model", "aelite measured", "aelite model", "reduction")

	var sumRed float64
	rows := 0
	for hops := 1; hops <= 5; hops++ {
		w := hops + 1 // mesh width holding a hops-router straight line
		dp, err := daelitePlatform(w, 1, 16)
		if err != nil {
			return nil, err
		}
		dc, err := openDaelite(dp, dp.Mesh.NI(0, 0, 0), dp.Mesh.NI(hops, 0, 0), 1)
		if err != nil {
			return nil, err
		}
		dLat, err := measureDaeliteLatency(dp, dc)
		if err != nil {
			return nil, err
		}

		an, err := aeliteNetwork(w, 1, 16)
		if err != nil {
			return nil, err
		}
		ac, err := openAelite(an, an.Mesh.NI(0, 0, 0), an.Mesh.NI(hops, 0, 0), 1)
		if err != nil {
			return nil, err
		}
		aLat, err := measureAeliteLatency(an, ac)
		if err != nil {
			return nil, err
		}

		path := dc.Fwd.Paths[0].Path
		dModel := analysis.TraversalCycles(dp.Mesh.Graph.PathSlotAdvance(path), dp.Params.SlotWords)
		aModel := analysis.PathLatencyCyclesAelite(len(path))
		red := 1 - dLat/aLat
		sumRed += red
		rows++
		t.AddRow(hops, fmt.Sprintf("%.0f", dLat), dModel, fmt.Sprintf("%.0f", aLat), aModel, report.Percent(red))
		r.Metrics[fmt.Sprintf("daelite_h%d", hops)] = dLat
		r.Metrics[fmt.Sprintf("aelite_h%d", hops)] = aLat
	}
	r.Metrics["mean_reduction"] = sumRed / float64(rows)
	r.Text = t.Render() + "\nPaper: per-hop 2 vs 3 cycles, 33% lower network traversal latency.\n"
	return r, nil
}

func measureDaeliteLatency(p *core.Platform, c *core.Connection) (float64, error) {
	src := p.NI(c.Spec.Src)
	dst := p.NI(c.Spec.Dst)
	var sum float64
	var n int
	for i := 0; i < 8; i++ {
		src.Send(c.SrcChannel, phit.Word(i))
		p.Run(128)
		for {
			d, ok := dst.Recv(c.DstChannel)
			if !ok {
				break
			}
			sum += float64(d.Cycle - d.Tag.InjectCycle)
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("latency: no daelite deliveries")
	}
	return sum / float64(n), nil
}

func measureAeliteLatency(a *aelite.Network, c *aelite.Connection) (float64, error) {
	src := a.NI(c.Src)
	dst := a.NI(c.Dst)
	var sum float64
	var n int
	for i := 0; i < 8; i++ {
		src.Send(c.SrcChannel, phit.Word(i))
		a.Run(192)
		for {
			d, ok := dst.Recv(c.DstChannel)
			if !ok {
				break
			}
			sum += float64(d.Cycle - d.Tag.InjectCycle)
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("latency: no aelite deliveries")
	}
	return sum / float64(n), nil
}

// SchedulingLatency regenerates the slot-size claim (E8): a small TDM slot
// improves scheduling latency (the wait for the next owned slot). daelite
// slots are 2 words and could shrink to 1; aelite slots cannot shrink
// below 3 words without blowing up header overhead. Analytical worst
// cases are checked against measured worst cases from the cycle model.
func SchedulingLatency() (*Result, error) {
	r := newResult("E8", "scheduling latency claim (Section V)")
	t := report.NewTable("Worst-case scheduling latency (cycles) for 2 of 8 slots reserved",
		"Slot size (words)", "Worst-case wait", "Note")
	mask := slots.MaskOf(8, 0, 4)
	for _, sw := range []int{1, 2, 3} {
		note := ""
		switch sw {
		case 1:
			note = "daelite possible (no headers)"
		case 2:
			note = "daelite default"
		case 3:
			note = "aelite minimum (header amortization)"
		}
		wc := analysis.MaxSlotGapCycles(mask, sw)
		t.AddRow(sw, wc, note)
		r.Metrics[fmt.Sprintf("wait_sw%d", sw)] = float64(wc)
	}

	// Measured: end-to-end worst latency of a low-rate stream on the
	// 2-word-slot platform must respect the analytical bound.
	p, err := daelitePlatform(2, 2, 8)
	if err != nil {
		return nil, err
	}
	c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(1, 1, 0), SlotsFwd: 2})
	if err != nil {
		return nil, err
	}
	if err := p.AwaitOpen(c, 100000); err != nil {
		return nil, err
	}
	src := traffic.NewSource(p.Sim, "sched-src", p.NI(c.Spec.Src), c.SrcChannel,
		traffic.SourceConfig{Pattern: traffic.CBR, Rate: 0.05, Limit: 200, Seed: 5})
	sink := traffic.NewSink(p.Sim, "sched-sink", p.NI(c.Spec.Dst), c.DstChannel)
	p.Sim.RunUntil(func() bool { return sink.Received() >= 200 }, 1_000_000)
	_ = src
	bound := analysis.UnicastGuarantees(p.Mesh.Graph, c.Fwd, p.Params.SlotWords).WorstCaseLatency
	measured := sink.TotalStats().MaxLat
	t2 := report.NewTable("Measured vs guaranteed end-to-end latency (2-word slots)",
		"Quantity", "Cycles")
	t2.AddRow("measured worst", measured)
	t2.AddRow("analytical bound", bound)
	r.Metrics["measured_worst"] = float64(measured)
	r.Metrics["bound"] = float64(bound)
	if measured > uint64(bound+analysis.CommitSlack) {
		return nil, fmt.Errorf("scheduling: measured worst %d exceeds bound %d", measured, bound)
	}
	r.Text = t.Render() + "\n" + t2.Render()
	return r, nil
}
