package experiments

import (
	"fmt"
	"strings"
)

// Experiment is one row of the evaluation: a paper artifact and the
// function that regenerates it.
type Experiment struct {
	// ID and Artifact equal the fields of the Result that Run returns.
	ID, Artifact string
	Run          func() (*Result, error)
	// Headline names the metrics `go test -bench Experiments` reports,
	// each under its own key as the unit.
	Headline []string
}

// Registry is the one list of experiments, in the order of the golden
// file. daelite bench (-list, -experiment), the root
// BenchmarkExperiments and the tests all loop over it; none has a list
// of its own. Every entry is measured in cycles, so every entry is in
// the golden file; host time is measured by the benchmark of record
// (benchmark/). The retired host-time experiments' IDs (E16, E17, E19,
// E22) stay unused.
var Registry = []Experiment{
	{ID: "E1", Artifact: "Table I", Run: TableIFeatures, Headline: []string{"rows"}},
	{ID: "E2", Artifact: "Table II", Run: TableIIArea, Headline: []string{"worst_deviation_points"}},
	{ID: "E3", Artifact: "Table III", Run: TableIIISetup, Headline: []string{"mean_speedup", "daelite_slot_sensitivity", "aelite_slot_sensitivity"}},
	{ID: "E4", Artifact: "latency claim (Section V)", Run: TraversalLatency, Headline: []string{"mean_reduction"}},
	{ID: "E5", Artifact: "header overhead claim (Section V)", Run: HeaderOverhead, Headline: []string{"daelite_efficiency", "aelite_overhead_consecutive", "aelite_overhead_scattered"}},
	{ID: "E6", Artifact: "config bandwidth loss claim (Section V)", Run: ConfigSlotLoss, Headline: []string{"aelite_loss_16"}},
	{ID: "E7", Artifact: "multipath bandwidth claim (Section V)", Run: MultipathGain, Headline: []string{"mean_gain"}},
	{ID: "E8", Artifact: "scheduling latency claim (Section V)", Run: SchedulingLatency, Headline: []string{"wait_sw1", "wait_sw2", "wait_sw3"}},
	{ID: "E9", Artifact: "Fig. 6", Run: Fig6PathSetup, Headline: []string{"setup_cycles", "setup_words", "host_words_32bit"}},
	{ID: "E10", Artifact: "Fig. 7", Run: MulticastTreeVsUnicast, Headline: []string{"tree_slots_n6", "unicast_slots_n6"}},
	{ID: "E11", Artifact: "Fig. 1/2 invariant", Run: ContentionFreedom, Headline: []string{"violations"}},
	{ID: "E12", Artifact: "frequency claim (Section V)", Run: CriticalPath, Headline: []string{"daelite_mhz", "aelite_mhz"}},
	{ID: "E13", Artifact: "use-case switching (Section IV)", Run: UseCaseSwitch, Headline: []string{"switch_cycles"}},
	{ID: "E14", Artifact: "attained vs reserved bandwidth (QoS claim)", Run: AttainedBandwidth, Headline: []string{"worst_fraction"}},
	{ID: "E15", Artifact: "repair latency under a link failure (chaos)", Run: FaultRepair, Headline: []string{"repair_cycles", "aelite_resetup_cycles", "resetup_speedup"}},
	{ID: "E18", Artifact: "conformance: sim-vs-model differential + mutation smoke", Run: ConformanceSweep, Headline: []string{"passed", "run_mismatches", "mutation_detected"}},
	{ID: "A1", Artifact: "ablation: TDM wheel size", Run: AblationWheelSize, Headline: []string{"setup_w8", "setup_w64"}},
	{ID: "A2", Artifact: "ablation: configuration cool-down", Run: AblationCooldown, Headline: []string{"setup_cd0", "setup_cd16"}},
	{ID: "A3", Artifact: "ablation: host placement / tree depth", Run: AblationTreeDepth, Headline: []string{"setup_host00", "setup_host11"}},
	{ID: "A4", Artifact: "ablation: NI queue depth / credit round-trip", Run: AblationQueueDepth, Headline: []string{"rate_d2", "rate_d32"}},
	{ID: "A6", Artifact: "ablation: pipelined (long/mesochronous) links", Run: AblationLongLinks, Headline: []string{"latency_s0", "latency_s4"}},
	{ID: "A7", Artifact: "ablation: energy per delivered word", Run: EnergyPerWord, Headline: []string{"daelite_pj_per_word", "aelite_pj_per_word", "energy_reduction"}},
	{ID: "A8", Artifact: "ablation: slot placement (dimensioning flow)", Run: SlotPlacement, Headline: []string{"clustered_worst", "spread_worst"}},
	{ID: "A9", Artifact: "ablation: partial-path reconfiguration (Fig. 7)", Run: PartialReconfig, Headline: []string{"full_setup", "graft_2"}},
	{ID: "A5", Artifact: "ablation: model-vs-model router area", Run: ModelVsModelArea, Headline: []string{"aelite_ratio", "vc8_ratio"}},
	{ID: "E20", Artifact: "regioned vs single-tree set-up", Run: RegionSetup, Headline: []string{"setup_cycles_single-tree", "setup_cycles_regioned(24)"}},
	{ID: "E21", Artifact: "per-stage set-up latency via causal traces", Run: TraceBreakdown, Headline: []string{"inject_cycles_regioned(24)", "settle_cycles_regioned(24)", "span_mismatches"}},
	{ID: "E23", Artifact: "DNN inference pack: per-layer energy and latency", Run: DNNWorkload, Headline: []string{"comm_share", "setup_share_of_active", "total_pj"}},
	{ID: "E24", Artifact: "switch-fabric pack: acceptance and delivery under VOQ matrices", Run: SwitchWorkload, Headline: []string{"accept_uniform", "accept_diagonal", "accept_hotspot"}},
}

// Select returns the Registry entries that which names, in Registry
// order. The one rule: an entry matches when which equals its ID or is
// a substring of its Artifact, both ignoring case. The empty string is
// a substring of every artifact, so it selects every entry.
func Select(which string) []Experiment {
	w := strings.ToLower(which)
	var out []Experiment
	for _, e := range Registry {
		if strings.EqualFold(e.ID, which) || strings.Contains(strings.ToLower(e.Artifact), w) {
			out = append(out, e)
		}
	}
	return out
}

// All runs every experiment and returns the results in Registry order.
func All() ([]*Result, error) {
	var out []*Result
	for _, e := range Registry {
		r, err := e.Run()
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}
