// Command daelite-spec validates a declarative platform description and
// optionally builds it, printing the resulting schedule (per-connection
// paths and slots) and the per-link occupancy — the front end of the
// dimensioning flow.
//
//	daelite-spec -check platform.json          # validate only
//	daelite-spec -schedule platform.json       # validate, build, print schedule
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"daelite/internal/analysis"
	"daelite/internal/report"
	"daelite/internal/spec"
)

func main() {
	var checkOnly bool
	flag.BoolVar(&checkOnly, "check", false, "validate the spec without building the platform")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: daelite-spec [-check] <spec.json>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal("%v", err)
	}
	s, err := spec.Parse(f)
	f.Close()
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("spec valid: %s %dx%d, %d connections\n",
		kindName(s.Mesh.Kind), s.Mesh.Width, s.Mesh.Height, len(s.Connections))
	if checkOnly {
		return
	}

	inst, err := s.Build()
	if err != nil {
		fatal("build: %v", err)
	}
	p := inst.Platform
	t := report.NewTable("Schedule", "Connection", "Slots", "Guaranteed bw (w/c)", "WC latency (cycles)", "Path(s)")
	for i, c := range inst.Connections {
		name := s.Connections[i].Name
		if name == "" {
			name = fmt.Sprintf("conn%d", i)
		}
		if c.Tree != nil {
			t.AddRow(name, c.Tree.InjectSlots.Slots(),
				fmt.Sprintf("%.4f", analysis.GuaranteedBandwidth(c.Tree.InjectSlots)),
				"-", fmt.Sprintf("multicast tree, %d edges", len(c.Tree.Edges)))
			continue
		}
		var paths []string
		for _, pa := range c.Fwd.Paths {
			var names []string
			for _, n := range p.Mesh.PathNodes(pa.Path) {
				names = append(names, p.Mesh.Node(n).Name)
			}
			paths = append(paths, strings.Join(names, "-"))
		}
		gu := analysis.UnicastGuarantees(p.Mesh.Graph, c.Fwd, p.Params.SlotWords)
		t.AddRow(name, c.Fwd.Paths[0].InjectSlots.Slots(),
			fmt.Sprintf("%.4f", gu.Bandwidth), gu.WorstCaseLatency,
			strings.Join(paths, " | "))
	}
	fmt.Println(t.Render())

	occ := report.NewTable("Link occupancy", "Link", "Used slots", "Utilization")
	for _, l := range p.Mesh.Links() {
		mask := p.Alloc.LinkOccupancy(l.ID)
		if mask.Empty() {
			continue
		}
		occ.AddRow(fmt.Sprintf("%s->%s", p.Mesh.Node(l.From).Name, p.Mesh.Node(l.To).Name),
			fmt.Sprint(mask.Slots()),
			report.Percent(float64(mask.Count())/float64(p.Params.Wheel)))
	}
	fmt.Println(occ.Render())
	fmt.Printf("configuration completed at cycle %d\n", p.Cycle())
}

func kindName(k string) string {
	if k == "" {
		return "mesh"
	}
	return k
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "daelite-spec: "+format+"\n", args...)
	os.Exit(1)
}
