package experiments

import (
	"fmt"
	"strings"

	"daelite/internal/analysis"
	"daelite/internal/core"
	"daelite/internal/report"
	"daelite/internal/topology"
)

// RegionSetup is experiment E20: single-tree versus regioned set-up at
// equal platform size. A 6x6 mesh (72 elements) fits one configuration
// region, so the same connection workload can be set up both ways —
// once over the single broadcast tree and once with MaxRegionElements
// forced down to 24 (three column-band regions) — isolating the cost of
// hierarchical config regions: region-select envelope words on every
// packet, packets split where a path crosses a region boundary, and
// settle time governed by the deepest region tree instead of one global
// tree. The analytic cost model (analysis.PathSetupCost) predicts the wire
// words of both variants; the table cross-checks it against the measured
// set-up spans.
func RegionSetup() (*Result, error) {
	res := newResult("E20", "regioned vs single-tree set-up")
	const w, h, wheel = 6, 6, 8

	type variant struct {
		name string
		cap  int
	}
	variants := []variant{
		{"single-tree", 0},
		{"regioned(24)", 24},
	}

	t := report.NewTable("E20 — set-up latency and wire cost: single tree vs config regions (6x6 mesh, per-row connections)",
		"Variant", "Regions", "Conn", "SpanRegions", "SetupCycles", "Words", "PredictedWords")
	var sb strings.Builder
	for _, v := range variants {
		params := platformParams(wheel)
		params.MaxRegionElements = v.cap
		p, err := core.NewMeshPlatform(topology.MeshSpec{Width: w, Height: h, NIsPerRouter: 1}, params, 0, 0)
		if err != nil {
			return nil, err
		}
		regionOf := func(n topology.NodeID) int { return p.Regions.Of(n) }
		var totalCycles, totalWords, totalPred uint64
		for y := 0; y < h; y++ {
			c, err := openDaelite(p, p.Mesh.NI(0, y, 0), p.Mesh.NI(w-1, y, 0), 2)
			if err != nil {
				return nil, err
			}
			pred := analysis.UnicastSetupCost(p.Mesh.Graph, c.Fwd, wheel, regionOf, p.Regions.Num()).
				Add(analysis.UnicastSetupCost(p.Mesh.Graph, c.Rev, wheel, regionOf, p.Regions.Num()))
			totalCycles += c.SetupCycles()
			totalWords += uint64(c.Setup.Words)
			totalPred += uint64(pred.Words)
			t.AddRow(v.name, p.Regions.Num(), fmt.Sprintf("row%d", y), c.Setup.Regions,
				c.SetupCycles(), c.Setup.Words, pred.Words)
		}
		t.AddRow(v.name, p.Regions.Num(), "total", "-", totalCycles, totalWords, totalPred)
		res.Metrics[fmt.Sprintf("setup_cycles_%s", v.name)] = float64(totalCycles)
		res.Metrics[fmt.Sprintf("setup_words_%s", v.name)] = float64(totalWords)
	}
	sb.WriteString(t.Render())
	sb.WriteString("\nThe regioned variant pays the region-select envelope on every packet and an extra\n" +
		"packet where a path crosses a region cut; in exchange the element-ID ceiling\n" +
		"disappears (a 16x16 torus sets up through six regions, see the scale CI job).\n" +
		"PredictedWords is the analytic mirror (alloc.PathSetupCost) of the path packets;\n" +
		"the measured Words additionally carry the register-write packets of each set-up.\n")
	res.Text = sb.String()
	return res, nil
}
