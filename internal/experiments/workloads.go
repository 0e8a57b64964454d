package experiments

import (
	"fmt"

	"daelite/internal/area"
	"daelite/internal/report"
	"daelite/internal/spec"
	"daelite/internal/workload"
)

// runPack compiles and executes a workload pack under the experiment
// harness settings. Every pack run is itself a differential test — the
// runner checks occupancy, latency and delivery against the analytical
// model — so a modelling divergence fails the experiment rather than
// producing a quietly wrong table.
func runPack(s *workload.Spec) (*workload.Compiled, *workload.Result, error) {
	c, err := workload.Compile(s)
	if err != nil {
		return nil, nil, err
	}
	res, err := workload.Run(c, workload.RunOptions{FastForward: platformFastForward})
	if err != nil {
		return nil, nil, err
	}
	if !res.Passed() {
		return nil, nil, fmt.Errorf("pack %s diverged from the model: %s", s.Name, res.Summary())
	}
	return c, res, nil
}

// DNNWorkload (E23) runs the canonical DNN inference pack and prices
// every layer phase with the activity-based energy model: weight
// broadcasts from the memory tiles (multicast), activation unicasts
// between layers, and the tile-side memory and MAC activity the
// transfers feed. Latency is split into the connection set-up window,
// the transfer itself and the settle/teardown tail — the set-up share is
// the paper's fast-configuration claim measured at application level.
func DNNWorkload() (*Result, error) {
	r := newResult("E23", "DNN inference pack: per-layer energy and latency")
	_, res, err := runPack(workload.ExampleDNN())
	if err != nil {
		return nil, err
	}
	e := area.DefaultEnergyModel()

	t := report.NewTable("DNN pack "+res.Pack+" (4x4 mesh; weight broadcasts + activation unicasts; energy from measured activity)",
		"Phase", "Kind", "Words", "Setup cyc", "Transfer cyc", "Comm pJ", "MMem pJ", "LMem pJ", "Comp pJ", "Total pJ")
	var total EnergyComponents
	var setup, transfer, cycles uint64
	for i := range res.Phases {
		ph := &res.Phases[i]
		pe := PhaseEnergy(ph, e)
		pl := PhaseLatency(ph)
		total.CommPJ += pe.CommPJ
		total.MMemPJ += pe.MMemPJ
		total.LMemPJ += pe.LMemPJ
		total.CompPJ += pe.CompPJ
		setup += pl.SetupCycles
		transfer += pl.TransferCycles
		cycles += ph.Cycles
		t.AddRow(ph.Name, ph.Kind, fmt.Sprintf("%d", ph.Words),
			fmt.Sprintf("%d", pl.SetupCycles), fmt.Sprintf("%d", pl.TransferCycles),
			fmt.Sprintf("%.0f", pe.CommPJ), fmt.Sprintf("%.0f", pe.MMemPJ),
			fmt.Sprintf("%.0f", pe.LMemPJ), fmt.Sprintf("%.0f", pe.CompPJ),
			fmt.Sprintf("%.0f", pe.TotalPJ()))
	}
	r.Metrics["phases"] = float64(len(res.Phases))
	r.Metrics["delivered_words"] = float64(res.Delivered)
	r.Metrics["total_pj"] = total.TotalPJ()
	r.Metrics["comm_share"] = total.CommPJ / total.TotalPJ()
	r.Metrics["setup_cycles"] = float64(setup)
	r.Metrics["transfer_cycles"] = float64(transfer)
	r.Metrics["setup_share_of_active"] = float64(setup) / float64(setup+transfer)
	r.Text = t.Render() + fmt.Sprintf(
		"\nAll %d words delivered with zero invariant violations; communication is %s of the %.0f pJ total, and connection set-up takes %s of the active (set-up + transfer) cycles.\n",
		res.Delivered, report.Percent(r.Metrics["comm_share"]), total.TotalPJ(),
		report.Percent(r.Metrics["setup_share_of_active"]))
	return r, nil
}

// SwitchWorkload (E24) runs the switch-fabric pack under the three VOQ
// traffic matrices — uniform, diagonal and hotspot — and verifies the
// TDM guarantee at application level: acceptance of the admissible
// connection set, and full in-budget delivery even when half the draws
// funnel into one egress. The hot-egress slot load shows how much of the
// wheel the hotspot actually concentrates.
func SwitchWorkload() (*Result, error) {
	r := newResult("E24", "switch-fabric pack: acceptance and delivery under VOQ matrices")
	t := report.NewTable("Tiny-Tera-style 16-port fabric (4x4 mesh; 8-cell VOQ bursts, 3 phases per matrix)",
		"Pattern", "Conns", "Accepted", "Hot-egress slot load", "Words", "Delivered", "Transfer cyc", "Violations")
	for _, pattern := range []string{"uniform", "diagonal", "hotspot"} {
		c, res, err := runPack(workload.ExampleTinyTera(pattern))
		if err != nil {
			return nil, err
		}
		var requested, opened int
		var words uint64
		var transfer uint64
		for i := range res.Phases {
			ph := &res.Phases[i]
			requested += ph.Requested
			opened += ph.Opened
			words += ph.Words
			transfer += PhaseLatency(ph).TransferCycles
		}
		// Hot-egress concentration: the worst per-destination forward-slot
		// sum any compiled phase places on a single NI, as a fraction of
		// the wheel.
		wheel, _, _ := c.Spec.Resolved()
		var hot int
		for i := range c.Phases {
			perDst := map[spec.Coord]int{}
			for _, cn := range c.Phases[i].Conns {
				perDst[*cn.Dst] += cn.Slots
			}
			for _, s := range perDst {
				if s > hot {
					hot = s
				}
			}
		}
		accept := float64(opened) / float64(requested)
		t.AddRow(pattern, fmt.Sprintf("%d", requested), report.Percent(accept),
			fmt.Sprintf("%d/%d", hot, wheel),
			fmt.Sprintf("%d", words), fmt.Sprintf("%d", res.Delivered),
			fmt.Sprintf("%d", transfer), fmt.Sprintf("%d", res.Violations))
		r.Metrics["accept_"+pattern] = accept
		r.Metrics["hot_slots_"+pattern] = float64(hot)
		r.Metrics["delivered_"+pattern] = float64(res.Delivered)
	}
	r.Text = t.Render() + "\nEvery admissible VOQ matrix is accepted in full and delivers every word within its closed-form budget: reservation-based admission keeps the hotspot a scheduling problem, not a loss problem.\n"
	return r, nil
}
