package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"daelite/internal/alloc"
	"daelite/internal/report"
	"daelite/internal/topology"
)

// runAlloc runs the contention-free slot allocation flow for requests
// sx,sy-dx,dy:slots, admitting them in order, and prints the schedule —
// per-connection paths and injection slots — and the per-link occupancy.
//
//	daelite alloc -mesh 4x4 -wheel 16 0,0-3,3:2 1,0-1,3:4
func runAlloc(fs *flag.FlagSet, argv []string, stdout, stderr io.Writer) error {
	var meshSpec string
	var wheel int
	var multipath, stats bool
	var detour int
	fs.StringVar(&meshSpec, "mesh", "4x4", "mesh dimensions WxH")
	fs.IntVar(&wheel, "wheel", 16, "TDM slot-table size")
	fs.BoolVar(&multipath, "multipath", false, "allow splitting connections over multiple paths")
	fs.IntVar(&detour, "detour", 0, "maximum detour links beyond shortest path")
	fs.BoolVar(&stats, "stats", false, "print path cache statistics after the run")
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
	a := alloc.New(m.Graph, wheel)

	opts := alloc.Options{Multipath: multipath, MaxDetour: detour}
	reqs := make([]alloc.Request, fs.NArg())
	for i, arg := range fs.Args() {
		r := &reqs[i]
		if r.Src, r.Dst, err = parseRoute(m, arg, "%d", &r.Slots); err != nil {
			return fmt.Errorf("bad request %q (want sx,sy-dx,dy:slots): %w", arg, err)
		}
	}

	title := fmt.Sprintf("Slot allocation on a %dx%d mesh, %d slots", spec.Width, spec.Height, wheel)
	t := report.NewTable(title, "Request", "Status", "Paths", "Injection slots")
	for i, r := range reqs {
		u, err := a.Unicast(r.Src, r.Dst, r.Slots, opts)
		if err != nil {
			t.AddRow(fs.Arg(i), "FAILED: "+err.Error(), "-", "-")
			continue
		}
		var slotCols []string
		for _, pa := range u.Paths {
			slotCols = append(slotCols, fmt.Sprint(pa.InjectSlots.Slots()))
		}
		t.AddRow(fs.Arg(i), "ok", pathNames(m.Graph, u), strings.Join(slotCols, " | "))
	}
	fmt.Fprintln(stdout, t.Render())
	fmt.Fprintln(stdout, occupancy("Link occupancy (used slots)", m.Graph, a, "Link", "Slots"))

	if stats {
		cs := a.CacheStats()
		fmt.Fprintf(stdout, "path cache: %d hits, %d misses, %d invalidations, %d truncations\n",
			cs.Hits, cs.Misses, cs.Invalidations, cs.Truncations)
	}
	return nil
}

// nodeNames joins the names of nodes with sep.
func nodeNames(g *topology.Graph, sep string, nodes ...topology.NodeID) string {
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = g.Node(n).Name
	}
	return strings.Join(names, sep)
}

// pathNames renders each of u's paths as its node names, "-"-joined, and
// the paths " | "-joined.
func pathNames(g *topology.Graph, u *alloc.Unicast) string {
	paths := make([]string, len(u.Paths))
	for i, pa := range u.Paths {
		paths[i] = nodeNames(g, "-", g.PathNodes(pa.Path)...)
	}
	return strings.Join(paths, " | ")
}

// occupancy renders a table with one row per link of g that has a slot
// reserved in a: the link, its used slots and its utilization of the
// wheel — as many of those columns as headers names.
func occupancy(title string, g *topology.Graph, a *alloc.Allocator, headers ...string) string {
	t := report.NewTable(title, headers...)
	for _, l := range g.Links() {
		mask := a.LinkOccupancy(l.ID)
		if mask.Empty() {
			continue
		}
		row := []any{nodeNames(g, "->", l.From, l.To), fmt.Sprint(mask.Slots()),
			report.Percent(float64(mask.Count()) / float64(a.Wheel()))}
		t.AddRow(row[:len(headers)]...)
	}
	return t.Render()
}
