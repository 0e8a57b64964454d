package main

import (
	"flag"
	"fmt"
	"io"

	"daelite/internal/area"
	"daelite/internal/report"
)

// runArea prints the analytical area model: Table II of the paper,
// per-component breakdowns of a daelite router and NI, and the
// critical-path frequency estimates.
func runArea(fs *flag.FlagSet, argv []string, stdout, stderr io.Writer) error {
	var ports, slots, width int
	fs.IntVar(&ports, "ports", 5, "router port count for the breakdown")
	fs.IntVar(&slots, "slots", 16, "TDM slot-table size")
	fs.IntVar(&width, "width", area.LinkWidth, "link width in bits")
	if err := parse(fs, argv); err != nil {
		return err
	}

	m := area.DefaultGateModel()

	t := report.NewTable("Table II — daelite area reduction compared to other implementations",
		"Implementation", "Configuration", "Ours", "Published", "Reduction", "Paper")
	for _, row := range area.TableII(m) {
		unit := "mm²"
		if row.Tech.NAND2um == 0 {
			unit = "slices"
		}
		t.AddRow(row.Name, row.Desc,
			fmt.Sprintf("%.4f %s", row.OursMm2, unit),
			fmt.Sprintf("%.4f %s", row.PublishedMm2, unit),
			report.Percent(row.Reduction), report.Percent(row.PaperReduction))
	}
	fmt.Fprintln(stdout, t.Render())

	b := report.NewTable(fmt.Sprintf("daelite router breakdown (%d ports, %d-bit links, %d slots) in gate equivalents",
		ports, width, slots),
		"Component", "GE")
	routerGE := m.DaeliteRouterGE(ports, width, slots, 2)
	b.AddRow("router total", fmt.Sprintf("%.0f", routerGE))
	b.AddRow("  in 130nm", area.FormatMm2(area.Mm2(routerGE, area.Tech130)))
	b.AddRow("  in 65nm", area.FormatMm2(area.Mm2(routerGE, area.Tech65)))
	niGE := m.DaeliteNIGE(8, 16, 32, slots)
	b.AddRow("NI total (8 ch, 16/32 queues)", fmt.Sprintf("%.0f", niGE))
	fmt.Fprintln(stdout, b.Render())

	f := report.NewTable("Frequency estimates (critical-path model)",
		"Network", "fmax @65nm", "fmax @130nm")
	f.AddRow("daelite",
		fmt.Sprintf("%.0f MHz", area.FMaxMHz(true, slots, ports, area.Tech65)),
		fmt.Sprintf("%.0f MHz", area.FMaxMHz(true, slots, ports, area.Tech130)))
	f.AddRow("aelite",
		fmt.Sprintf("%.0f MHz", area.FMaxMHz(false, slots, ports, area.Tech65)),
		fmt.Sprintf("%.0f MHz", area.FMaxMHz(false, slots, ports, area.Tech130)))
	fmt.Fprintln(stdout, f.Render())
	return nil
}
