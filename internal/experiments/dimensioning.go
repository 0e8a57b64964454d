package experiments

import (
	"fmt"

	"daelite/internal/analysis"
	"daelite/internal/core"
	"daelite/internal/dimension"
	"daelite/internal/report"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// SlotPlacement (A8) isolates the slot-placement dimension of the design
// flow: the same 2-of-16 bandwidth share is scheduled once with clustered
// slots (lowest-free first-fit, the simple default) and once evenly spread
// (the dimensioner's choice for latency-constrained connections). The
// measured worst-case end-to-end latency follows the analytical gap.
func SlotPlacement() (*Result, error) {
	r := newResult("A8", "ablation: slot placement (dimensioning flow)")
	t := report.NewTable("Slot placement for a 2-of-16 reservation over a 4-link path (low-rate stream)",
		"Placement", "Slots", "Analytical WC latency", "Measured worst", "Measured mean")

	run := func(spread bool) (wc int, worst uint64, mean float64, used []int, err error) {
		p, err := daelitePlatform(2, 2, 16)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		c, err := p.Open(core.ConnectionSpec{
			Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(1, 1, 0),
			SlotsFwd: 2, Spread: spread,
		})
		if err != nil {
			return 0, 0, 0, nil, err
		}
		if err := p.AwaitOpen(c, 100000); err != nil {
			return 0, 0, 0, nil, err
		}
		pa := c.Fwd.Paths[0]
		wc = analysis.UnicastGuarantees(p.Mesh.Graph, c.Fwd, p.Params.SlotWords).WorstCaseLatency
		traffic.NewSource(p.Sim, "src", p.NI(c.Spec.Src), c.SrcChannel,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: 0.03, Limit: 300, Seed: 3})
		sink := traffic.NewSink(p.Sim, "sink", p.NI(c.Spec.Dst), c.DstChannel)
		p.Sim.RunUntil(func() bool { return sink.Received() >= 300 }, 1_000_000)
		if sink.Received() < 300 {
			return 0, 0, 0, nil, fmt.Errorf("dimension ablation: stream starved")
		}
		tot := sink.TotalStats()
		return wc, tot.MaxLat, tot.Mean(), pa.InjectSlots.Slots(), nil
	}

	for _, spread := range []bool{false, true} {
		wc, worst, mean, used, err := run(spread)
		if err != nil {
			return nil, err
		}
		name, key := "clustered (first-fit)", "clustered"
		if spread {
			name, key = "spread (dimensioner)", "spread"
		}
		t.AddRow(name, fmt.Sprint(used), wc, worst, fmt.Sprintf("%.1f", mean))
		r.Metrics[key+"_bound"] = float64(wc)
		r.Metrics[key+"_worst"] = float64(worst)
	}

	// The dimensioning front end itself: requirements in, wheel size and
	// slot schedule out, guarantees proven.
	m, err := topology.NewMesh(topology.MeshSpec{Width: 3, Height: 3, NIsPerRouter: 1})
	if err != nil {
		return nil, err
	}
	reqs := []dimension.Requirement{
		{Name: "video", Src: m.NI(0, 0, 0), Dst: m.NI(2, 2, 0), Bandwidth: 0.25, MaxLatency: 40},
		{Name: "audio", Src: m.NI(1, 0, 0), Dst: m.NI(1, 2, 0), Bandwidth: 0.0625, MaxLatency: 60},
		{Name: "bulk", Src: m.NI(2, 0, 0), Dst: m.NI(0, 2, 0), Bandwidth: 0.3},
	}
	res, err := dimension.Dimension(m.Graph, reqs, dimension.Config{})
	if err != nil {
		return nil, err
	}
	t2 := report.NewTable(fmt.Sprintf("Dimensioning: requirements -> %d-slot wheel schedule", res.Wheel),
		"Requirement", "Bandwidth asked", "Latency bound", "Slots granted", "Bandwidth granted", "WC latency")
	for _, a := range res.Assignments {
		bound := "-"
		if a.Requirement.MaxLatency > 0 {
			bound = fmt.Sprint(a.Requirement.MaxLatency)
		}
		t2.AddRow(a.Requirement.Name,
			fmt.Sprintf("%.4f", a.Requirement.Bandwidth), bound,
			fmt.Sprintf("%d %v", a.Slots, a.Alloc.Paths[0].InjectSlots.Slots()),
			fmt.Sprintf("%.4f", a.GuaranteedBandwidth), a.WorstCaseLatency)
	}
	r.Metrics["dim_wheel"] = float64(res.Wheel)
	r.Text = t.Render() + "\n" + t2.Render()
	return r, nil
}
