package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"

	"daelite/internal/analysis"
	"daelite/internal/report"
	"daelite/internal/spec"
)

// runSpec validates a declarative platform description and, unless
// -check is given, builds it, printing the resulting schedule
// (per-connection paths and slots) and the per-link occupancy — the
// front end of the dimensioning flow.
//
//	daelite spec -check platform.json   # validate only
//	daelite spec platform.json          # validate, build, print schedule
func runSpec(fs *flag.FlagSet, argv []string, stdout, stderr io.Writer) error {
	var checkOnly bool
	fs.BoolVar(&checkOnly, "check", false, "validate the spec without building the platform")
	if err := parse(fs, argv); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: daelite spec [-check] <spec.json>")
		return usageError{fmt.Errorf("want one spec file, got %d arguments", fs.NArg())}
	}
	s, err := loadSpec(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "spec valid: %s %dx%d, %d connections\n",
		cmp.Or(s.Mesh.Kind, "mesh"), s.Mesh.Width, s.Mesh.Height, len(s.Connections))
	if checkOnly {
		return nil
	}

	inst, err := s.Build()
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	p := inst.Platform
	t := report.NewTable("Schedule", "Connection", "Slots", "Guaranteed bw (w/c)", "WC latency (cycles)", "Path(s)")
	for i, c := range inst.Connections {
		if c.Tree != nil {
			t.AddRow(connName(s, i), c.Tree.InjectSlots.Slots(),
				fmt.Sprintf("%.4f", analysis.GuaranteedBandwidth(c.Tree.InjectSlots)),
				"-", fmt.Sprintf("multicast tree, %d edges", len(c.Tree.Edges)))
			continue
		}
		gu := analysis.UnicastGuarantees(p.Mesh.Graph, c.Fwd, p.Params.SlotWords)
		t.AddRow(connName(s, i), c.Fwd.Paths[0].InjectSlots.Slots(),
			fmt.Sprintf("%.4f", gu.Bandwidth), gu.WorstCaseLatency, pathNames(p.Mesh.Graph, c.Fwd))
	}
	fmt.Fprintln(stdout, t.Render())
	fmt.Fprintln(stdout, occupancy("Link occupancy", p.Mesh.Graph, p.Alloc, "Link", "Used slots", "Utilization"))
	fmt.Fprintf(stdout, "configuration completed at cycle %d\n", p.Cycle())
	return nil
}

// loadSpec reads and validates a JSON platform spec file.
func loadSpec(path string) (*spec.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return spec.Parse(f)
}

// connName is the name of s's i-th connection, or conn<i> if it has none.
func connName(s *spec.Spec, i int) string {
	if name := s.Connections[i].Name; name != "" {
		return name
	}
	return fmt.Sprintf("conn%d", i)
}
