package experiments

import (
	"fmt"
	"strings"

	"daelite/internal/core"
	"daelite/internal/report"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
)

// indexSetupSpans splits finished trace spans into set-up roots (keyed
// by name, e.g. "setup #3") and a parent-ID -> children index.
func indexSetupSpans(spans []tracing.Span) (map[string]tracing.Span, map[uint64][]tracing.Span) {
	roots := map[string]tracing.Span{}
	children := map[uint64][]tracing.Span{}
	for _, s := range spans {
		if s.Cat == "setup" {
			roots[s.Name] = s
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	return roots, children
}

// TraceBreakdown is experiment E21: the causal tracer's per-stage
// decomposition of set-up latency, single tree versus config regions at
// equal platform size (the E20 pairing). Every set-up transaction's
// trace carries one "inject" child per configuration region it touches
// (ending the cycle that region's module was first observed idle) and a
// "settle" child for the drain tail, so the table splits each
// connection's SetupCycles into how long the config words took to flow
// through the tree(s) versus how long the platform then waited for the
// settle window — and cross-checks that the trace root's cycle count
// equals the connection's SetupCycles exactly.
func TraceBreakdown() (*Result, error) {
	res := newResult("E21", "per-stage set-up latency via causal traces")
	const w, h, wheel = 6, 6, 8

	type variant struct {
		name string
		cap  int
	}
	variants := []variant{
		{"single-tree", 0},
		{"regioned(24)", 24},
	}

	t := report.NewTable("E21 — per-stage set-up latency from causal traces (6x6 mesh, per-row connections)",
		"Variant", "Conn", "Fanout", "InjectCycles", "SettleCycles", "TraceCycles", "SpanCycles")
	var sb strings.Builder
	mismatches := 0
	for _, v := range variants {
		params := platformParams(wheel)
		params.MaxRegionElements = v.cap
		p, err := core.NewMeshPlatform(topology.MeshSpec{Width: w, Height: h, NIsPerRouter: 1}, params, 0, 0)
		if err != nil {
			return nil, err
		}
		tr := tracing.New(tracing.Options{})
		p.AttachTracer(tr)

		var conns []*core.Connection
		for y := 0; y < h; y++ {
			c, err := openDaelite(p, p.Mesh.NI(0, y, 0), p.Mesh.NI(w-1, y, 0), 2)
			if err != nil {
				return nil, err
			}
			conns = append(conns, c)
		}

		roots, children := indexSetupSpans(tr.Spans())
		var totInject, totSettle, totTotal uint64
		for y, c := range conns {
			root, ok := roots[fmt.Sprintf("setup #%d", c.Setup.ID)]
			if !ok {
				return nil, fmt.Errorf("E21: no trace root for connection %d", c.ID)
			}
			var inject, settle uint64
			fanout := 0
			for _, ch := range children[root.ID] {
				switch ch.Cat {
				case "inject":
					fanout++
					if d := ch.Cycles(); d > inject {
						inject = d
					}
				case "settle":
					settle = ch.Cycles()
				}
			}
			total := root.Cycles()
			if total != c.SetupCycles() {
				mismatches++
			}
			totInject += inject
			totSettle += settle
			totTotal += total
			t.AddRow(v.name, fmt.Sprintf("row%d", y), fanout, inject, settle, total, c.SetupCycles())
		}
		t.AddRow(v.name, "total", "-", totInject, totSettle, totTotal, totTotal)
		res.Metrics[fmt.Sprintf("inject_cycles_%s", v.name)] = float64(totInject)
		res.Metrics[fmt.Sprintf("settle_cycles_%s", v.name)] = float64(totSettle)
		res.Metrics[fmt.Sprintf("total_cycles_%s", v.name)] = float64(totTotal)
	}
	res.Metrics["span_mismatches"] = float64(mismatches)
	sb.WriteString(t.Render())
	sb.WriteString("\nInject is the slowest region tree's drain time (per-region first-idle cycle,\n" +
		"observed by the kernel's drain predicate); Settle is the quiet window after the\n" +
		"last region drained. The regioned variant pays envelope and boundary-split\n" +
		"words (E20 counts them) yet still injects faster: three shallow column-band\n" +
		"trees drain in parallel where the single tree serializes the whole mesh.\n" +
		"TraceCycles is the trace root's duration and SpanCycles the telemetry span's —\n" +
		fmt.Sprintf("the tracer and the span ledger must agree exactly (mismatches: %d).\n", mismatches))
	res.Text = sb.String()
	return res, nil
}
