package experiments

import (
	"fmt"

	"daelite/internal/area"
	"daelite/internal/cfgproto"
	"daelite/internal/core"
	"daelite/internal/report"
	"daelite/internal/topology"
)

// AblationWheelSize measures how daelite's set-up time and hardware cost
// scale with the TDM wheel size — the design trade-off behind the paper's
// choice of 8-32 slots: a larger wheel admits finer-grained bandwidth
// shares but needs more mask words per configuration packet, larger slot
// tables, and a deeper table-read mux on the critical path.
func AblationWheelSize() (*Result, error) {
	r := newResult("A1", "ablation: TDM wheel size")
	t := report.NewTable("Wheel-size ablation (4x4 mesh, 3-router-hop connection, 2 slots)",
		"Wheel", "Mask words", "Setup measured (cycles)", "Router area (GE, 5 ports)", "fmax @65nm (MHz)")
	model := area.DefaultGateModel()
	for _, wheel := range []int{8, 16, 32, 64} {
		p, err := daelitePlatform(4, 4, wheel)
		if err != nil {
			return nil, err
		}
		c, err := openDaelite(p, p.Mesh.NI(0, 1, 0), p.Mesh.NI(3, 1, 0), 2)
		if err != nil {
			return nil, err
		}
		ge := model.DaeliteRouterGE(5, area.LinkWidth, wheel, 2)
		t.AddRow(wheel,
			cfgproto.MaskWords(wheel),
			c.SetupCycles(),
			fmt.Sprintf("%.0f", ge),
			fmt.Sprintf("%.0f", area.FMaxMHz(true, wheel, 5, area.Tech65)))
		r.Metrics[fmt.Sprintf("setup_w%d", wheel)] = float64(c.SetupCycles())
		r.Metrics[fmt.Sprintf("routerGE_w%d", wheel)] = ge
	}
	r.Text = t.Render()
	return r, nil
}

// AblationCooldown measures the configuration module's cool-down
// parameter: the quiet period after each packet trades set-up latency for
// the slack routers and NIs get to apply their updates.
func AblationCooldown() (*Result, error) {
	r := newResult("A2", "ablation: configuration cool-down")
	t := report.NewTable("Cool-down ablation (4x4 mesh, 16 slots, 3-router-hop connection, 2 slots)",
		"Cooldown (cycles)", "Setup measured (cycles)")
	for _, cd := range []int{0, 2, 4, 8, 16} {
		params := platformParams(16)
		params.Cooldown = cd
		p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1}, params, 0, 0)
		if err != nil {
			return nil, err
		}
		c, err := openDaelite(p, p.Mesh.NI(0, 1, 0), p.Mesh.NI(3, 1, 0), 2)
		if err != nil {
			return nil, err
		}
		t.AddRow(cd, c.SetupCycles())
		r.Metrics[fmt.Sprintf("setup_cd%d", cd)] = float64(c.SetupCycles())
	}
	r.Text = t.Render()
	return r, nil
}

// AblationTreeDepth measures the effect of the host's placement on
// set-up time: the configuration tree is a minimal-depth spanning tree
// rooted next to the host, so a corner host reaches the far elements in
// more hops than a central one.
func AblationTreeDepth() (*Result, error) {
	r := newResult("A3", "ablation: host placement / tree depth")
	t := report.NewTable("Host-placement ablation (4x4 mesh, 16 slots, connection NI01 -> NI31)",
		"Host at", "Tree depth", "Setup measured (cycles)")
	for _, host := range [][2]int{{0, 0}, {1, 1}, {3, 3}} {
		p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1}, platformParams(16), host[0], host[1])
		if err != nil {
			return nil, err
		}
		c, err := openDaelite(p, p.Mesh.NI(0, 1, 0), p.Mesh.NI(3, 1, 0), 2)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("(%d,%d)", host[0], host[1]), p.Tree.MaxDepth(), c.SetupCycles())
		r.Metrics[fmt.Sprintf("setup_host%d%d", host[0], host[1])] = float64(c.SetupCycles())
		r.Metrics[fmt.Sprintf("depth_host%d%d", host[0], host[1])] = float64(p.Tree.MaxDepth())
	}
	r.Text = t.Render()
	return r, nil
}

// AblationQueueDepth measures how the NI receive-queue depth (= the
// credit allowance) bounds sustained throughput over a long path: with
// too little buffering the credit round-trip throttles the stream below
// the reserved bandwidth.
func AblationQueueDepth() (*Result, error) {
	r := newResult("A4", "ablation: NI queue depth / credit round-trip")
	t := report.NewTable("Receive-queue-depth ablation (5-hop connection, 4 of 16 slots reserved = 0.25 words/cycle)",
		"Recv queue depth", "Delivered (words/cycle)", "Reservation attained")
	for _, depth := range []int{2, 4, 8, 16, 32} {
		params := platformParams(16)
		params.RecvQueueDepth = depth
		params.SendQueueDepth = 64
		p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 4, Height: 1, NIsPerRouter: 1}, params, 0, 0)
		if err != nil {
			return nil, err
		}
		c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(3, 0, 0), SlotsFwd: 4})
		if err != nil {
			return nil, err
		}
		if err := p.AwaitOpen(c, 1_000_000); err != nil {
			return nil, err
		}
		rate, err := saturateDaelite(p, c.Spec.Src, c.Spec.Dst, c.SrcChannel, c.DstChannel)
		if err != nil {
			return nil, err
		}
		reserved := 4.0 / 16
		t.AddRow(depth, fmt.Sprintf("%.4f", rate), report.Percent(rate/reserved))
		r.Metrics[fmt.Sprintf("rate_d%d", depth)] = rate
	}
	r.Text = t.Render()
	return r, nil
}
