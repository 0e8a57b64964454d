// Tracing: attach the causal tracer to a mesh whose configuration is
// split into three regions, open a multicast tree that crosses all of
// them, and render the resulting span tree — one set-up root fanning out
// into per-region "inject" children (each ending the cycle its region's
// broadcast tree drained) and a "settle" child for the quiet window.
// Finishes by exporting the whole run as Chrome trace-event JSON, the
// format Perfetto and chrome://tracing load directly.
package main

import (
	"bytes"
	"fmt"
	"log"
	"sort"
	"strings"

	"daelite"
)

func main() {
	// Force MaxRegionElements down so a 6x6 mesh splits into three
	// column-band config regions — the hierarchy a 16x16 needs anyway.
	params := daelite.DefaultParams()
	params.MaxRegionElements = 24
	p, err := daelite.NewMeshPlatform(
		daelite.MeshSpec{Width: 6, Height: 6, NIsPerRouter: 1}, params, 0, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Attach the tracer before opening anything, like the telemetry
	// registry; a platform without one pays zero tracing cost.
	tr := daelite.NewTracer(daelite.TracerOptions{})
	p.AttachTracer(tr)

	fmt.Printf("mesh 6x6 split into %d config regions\n\n", p.Regions.Num())

	// A multicast tree from the west edge to three far corners crosses
	// every region, so its set-up must inject through all three trees.
	mc, err := p.Open(daelite.ConnectionSpec{
		Src: p.Mesh.NI(0, 2, 0),
		Dsts: []daelite.NodeID{
			p.Mesh.NI(5, 0, 0), p.Mesh.NI(5, 5, 0), p.Mesh.NI(3, 3, 0),
		},
		SlotsFwd: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	// And one short unicast that stays inside the western region, for
	// contrast: its trace has a single inject child.
	uc, err := p.Open(daelite.ConnectionSpec{
		Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(1, 1, 0), SlotsFwd: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := p.CompleteConfig(1_000_000); err != nil {
		log.Fatal(err)
	}

	// Render each trace as an indented tree. Spans carry cycle-exact
	// start/end stamps, so the fan-out is readable without a UI.
	spans := tr.Spans()
	fmt.Println("causal span trees (cycles):")
	for _, root := range roots(spans) {
		printTree(spans, root, 1)
	}
	fmt.Printf("\nmulticast set-up: %d cycles over %d regions; unicast: %d cycles\n",
		mc.SetupCycles(), mc.Setup.Regions, uc.SetupCycles())

	// The Chrome export is a pure function of the simulation — run it
	// again and the bytes are identical.
	var buf bytes.Buffer
	if err := daelite.WriteChromeTrace(&buf, tr); err != nil {
		log.Fatal(err)
	}
	first := buf.String()
	if i := strings.IndexByte(first[1:], '\n'); i >= 0 {
		first = first[:i+1]
	}
	fmt.Printf("\nChrome trace export: %d bytes, first line %q...\n", buf.Len(), first)
	fmt.Println("(write it to a file with daelite-sim -trace-out and load it in Perfetto)")
}

// roots returns the parentless spans in start order.
func roots(spans []daelite.TraceSpan) []daelite.TraceSpan {
	var out []daelite.TraceSpan
	for _, s := range spans {
		if s.Parent == 0 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func printTree(spans []daelite.TraceSpan, s daelite.TraceSpan, depth int) {
	fmt.Printf("%s%-12s [%4d, %4d] %d cycles\n",
		strings.Repeat("  ", depth), s.Name, s.Start, s.End, s.Cycles())
	var kids []daelite.TraceSpan
	for _, c := range spans {
		if c.Parent == s.ID && c.Trace == s.Trace {
			kids = append(kids, c)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].ID < kids[j].ID })
	for _, c := range kids {
		printTree(spans, c, depth+1)
	}
}
