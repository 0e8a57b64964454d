package main

import (
	"flag"
	"fmt"
	"io"

	"daelite/internal/dimension"
	"daelite/internal/report"
	"daelite/internal/topology"
)

// runDimension runs the network dimensioning flow: application-level
// requirements (bandwidth in words/cycle, optional worst-case latency
// bounds) go in, the smallest feasible TDM wheel and a contention-free
// slot schedule with proven guarantees come out.
//
// Requirements are given as sx,sy-dx,dy:bandwidth[@maxlatency], e.g.
//
//	daelite dimension -mesh 3x3 0,0-2,2:0.25@40 1,0-1,2:0.0625 2,0-0,2:0.3
func runDimension(fs *flag.FlagSet, argv []string, stdout, stderr io.Writer) error {
	var meshSpec string
	fs.StringVar(&meshSpec, "mesh", "4x4", "mesh dimensions WxH")
	if err := parse(fs, argv); err != nil {
		return err
	}
	spec, err := parseMesh(meshSpec)
	if err != nil {
		return err
	}
	m, err := topology.NewMesh(spec)
	if err != nil {
		return err
	}

	var reqs []dimension.Requirement
	for i, arg := range fs.Args() {
		r := dimension.Requirement{Name: fmt.Sprintf("req%d", i)}
		if r.Src, r.Dst, err = parseRoute(m, arg, "%f@%d", &r.Bandwidth, &r.MaxLatency); err != nil {
			return fmt.Errorf("bad requirement %q (want sx,sy-dx,dy:bandwidth[@maxlatency]): %w", arg, err)
		}
		reqs = append(reqs, r)
	}
	if len(reqs) == 0 {
		return fmt.Errorf("no requirements given")
	}

	res, err := dimension.Dimension(m.Graph, reqs, dimension.Config{})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "smallest feasible wheel: %d slots\n\n", res.Wheel)
	t := report.NewTable("Dimensioned schedule",
		"Requirement", "Bandwidth asked", "Latency bound", "Slots", "Injection slots", "Bandwidth granted", "WC latency")
	for _, a := range res.Assignments {
		bound := "-"
		if a.Requirement.MaxLatency > 0 {
			bound = fmt.Sprint(a.Requirement.MaxLatency)
		}
		t.AddRow(a.Requirement.Name,
			fmt.Sprintf("%.4f", a.Requirement.Bandwidth), bound,
			a.Slots, fmt.Sprint(a.Alloc.Paths[0].InjectSlots.Slots()),
			fmt.Sprintf("%.4f", a.GuaranteedBandwidth), a.WorstCaseLatency)
	}
	fmt.Fprintln(stdout, t.Render())
	return nil
}
