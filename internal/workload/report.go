package workload

import (
	"fmt"

	"daelite/internal/report"
)

// Report renders the per-phase outcome of a pack run as a terminal
// table, one row per phase plus the run's summary line — the shared
// output format of the -workload modes of daelite sim, daelite chaos
// and daelite conform.
func (r *Result) Report() string {
	t := report.NewTable(fmt.Sprintf("workload %s — %d phases", r.Pack, len(r.Phases)),
		"Phase", "Kind", "Conns", "Words", "Delivered", "Setup", "Transfer", "Cycles", "Forwarded", "Faults")
	for i := range r.Phases {
		ph := &r.Phases[i]
		conns := fmt.Sprintf("%d/%d", ph.Opened, ph.Requested)
		var transfer uint64
		if ph.DrainCycles > ph.SetupCycles {
			transfer = ph.DrainCycles - ph.SetupCycles
		}
		faults := ""
		if ph.Faulted {
			faults = fmt.Sprintf("1 (%d repaired)", ph.Repaired)
		}
		t.AddRow(ph.Name, ph.Kind, conns, ph.Words, ph.Delivered,
			ph.SetupCycles, transfer, ph.Cycles, ph.Forwarded, faults)
	}
	return t.Render() + "\n" + r.Summary() + "\n"
}
