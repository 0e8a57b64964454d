package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// The experiment tests assert the paper's SHAPE: who wins and by roughly
// what factor. Absolute cycle counts are model-specific.

func TestTableIFeatures(t *testing.T) {
	r, err := TableIFeatures()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["rows"] != 7 {
		t.Fatalf("rows = %v", r.Metrics["rows"])
	}
	if !strings.Contains(r.Text, "daelite") {
		t.Fatal("daelite row missing")
	}
}

func TestTableIIArea(t *testing.T) {
	r, err := TableIIArea()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["worst_deviation_points"] > 7 {
		t.Fatalf("worst deviation from paper: %.1f points", r.Metrics["worst_deviation_points"])
	}
}

func TestTableIIISetup(t *testing.T) {
	r, err := TableIIISetup()
	if err != nil {
		t.Fatal(err)
	}
	// Headline: roughly one order of magnitude faster set-up.
	if got := r.Metrics["mean_speedup"]; got < 5 || got > 60 {
		t.Fatalf("mean speedup = %.1fx, want order-of-magnitude range [5, 60]", got)
	}
	// daelite set-up nearly independent of slot count; aelite's grows.
	if got := r.Metrics["daelite_slot_sensitivity"]; got > 1.15 {
		t.Fatalf("daelite setup grew %.2fx with slots, want ~1.0", got)
	}
	if got := r.Metrics["aelite_slot_sensitivity"]; got < 1.2 {
		t.Fatalf("aelite setup grew only %.2fx with slots", got)
	}
	// Setup grows with path length for daelite (more pairs to send).
	if r.Metrics["daelite_measured_h5"] <= r.Metrics["daelite_measured_h1"] {
		t.Fatal("daelite setup not monotone in path length")
	}
}

func TestTraversalLatency(t *testing.T) {
	r, err := TraversalLatency()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's 33% claim is about the per-hop ratio (2 vs 3); end to
	// end with the NI stages the reduction approaches it from below.
	if got := r.Metrics["mean_reduction"]; got < 0.20 || got > 0.40 {
		t.Fatalf("mean latency reduction = %.2f, want ~[0.20, 0.40]", got)
	}
	// Exact cycle counts for 5 hops: 2*(5+2) = 14 vs 3*5+2 = 17... as
	// measured by the models.
	if r.Metrics["daelite_h5"] >= r.Metrics["aelite_h5"] {
		t.Fatal("daelite not faster at 5 hops")
	}
}

func TestHeaderOverhead(t *testing.T) {
	r, err := HeaderOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics["daelite_efficiency"]; got < 0.98 {
		t.Fatalf("daelite efficiency = %.3f, want ~1 (no headers)", got)
	}
	// Paper brackets: 11% (consecutive 3-slot packets) to 33%
	// (scattered single-slot packets).
	if got := r.Metrics["aelite_overhead_consecutive"]; got < 0.08 || got > 0.16 {
		t.Fatalf("aelite consecutive overhead = %.3f, want ~0.11", got)
	}
	if got := r.Metrics["aelite_overhead_scattered"]; got < 0.28 || got > 0.38 {
		t.Fatalf("aelite scattered overhead = %.3f, want ~0.33", got)
	}
}

func TestConfigSlotLoss(t *testing.T) {
	r, err := ConfigSlotLoss()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics["aelite_loss_16"]; got != 0.0625 {
		t.Fatalf("analytical loss = %v, want 0.0625", got)
	}
	if got := r.Metrics["aelite_measured_16"]; got < 0.0625 {
		t.Fatalf("measured loss = %v, want >= 6.25%%", got)
	}
}

func TestMultipathGain(t *testing.T) {
	r, err := MultipathGain()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics["mean_gain"]; got < 0.08 || got > 0.45 {
		t.Fatalf("mean multipath gain = %.3f, want in [0.08, 0.45] (paper cites 24%%)", got)
	}
}

func TestSchedulingLatency(t *testing.T) {
	r, err := SchedulingLatency()
	if err != nil {
		t.Fatal(err)
	}
	if !(r.Metrics["wait_sw1"] < r.Metrics["wait_sw2"] && r.Metrics["wait_sw2"] < r.Metrics["wait_sw3"]) {
		t.Fatal("scheduling latency not monotone in slot size")
	}
	if r.Metrics["measured_worst"] > r.Metrics["bound"]+2 {
		t.Fatal("measured latency exceeds analytical bound")
	}
}

func TestFig6PathSetup(t *testing.T) {
	r, err := Fig6PathSetup()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["setup_words"] != 11 {
		t.Fatalf("setup words = %v, want 11 (paper: 3 host words)", r.Metrics["setup_words"])
	}
	if r.Metrics["host_words_32bit"] != 3 {
		t.Fatalf("host words = %v, want 3", r.Metrics["host_words_32bit"])
	}
	// The expected/configured columns must agree (rendered check).
	if strings.Contains(r.Text, "infeasible") {
		t.Fatal("fig6 table broken")
	}
	for _, line := range strings.Split(r.Text, "\n") {
		if strings.Contains(line, "[") {
			// "Expected slots" and "Configured slots" cells must match.
			idx := strings.Index(line, "[")
			rest := line[idx:]
			parts := strings.SplitN(rest, "]", 2)
			if len(parts) == 2 && !strings.Contains(parts[1], parts[0][1:]) {
				t.Fatalf("mismatched slots in row: %q", line)
			}
		}
	}
}

func TestMulticastTreeVsUnicast(t *testing.T) {
	r, err := MulticastTreeVsUnicast()
	if err != nil {
		t.Fatal(err)
	}
	// The tree uses a constant 2 slots on the source link; separate
	// connections use 2n.
	for n := 2; n <= 6; n++ {
		if r.Metrics[fmt.Sprintf("tree_slots_n%d", n)] != 2 {
			t.Fatalf("tree slots at n=%d: %v", n, r.Metrics[fmt.Sprintf("tree_slots_n%d", n)])
		}
		if r.Metrics[fmt.Sprintf("unicast_slots_n%d", n)] != float64(2*n) {
			t.Fatalf("unicast slots at n=%d: %v", n, r.Metrics[fmt.Sprintf("unicast_slots_n%d", n)])
		}
	}
	if r.Metrics["verified_destinations"] != 3 {
		t.Fatal("delivery check skipped")
	}
}

func TestContentionFreedom(t *testing.T) {
	r, err := ContentionFreedom()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["violations"] != 0 {
		t.Fatalf("violations = %v", r.Metrics["violations"])
	}
}

func TestCriticalPath(t *testing.T) {
	r, err := CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["daelite_mhz"] <= r.Metrics["aelite_mhz"] {
		t.Fatal("daelite not faster than aelite")
	}
}

func TestUseCaseSwitch(t *testing.T) {
	r, err := UseCaseSwitch()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["persistent_ooo"] != 0 {
		t.Fatal("persistent stream disturbed")
	}
	if r.Metrics["switch_cycles"] <= 0 {
		t.Fatal("switch not timed")
	}
}

func TestAblationWheelSize(t *testing.T) {
	r, err := AblationWheelSize()
	if err != nil {
		t.Fatal(err)
	}
	// Larger wheels need more mask words, so set-up grows slowly.
	if r.Metrics["setup_w64"] <= r.Metrics["setup_w8"] {
		t.Fatal("setup not monotone in wheel size")
	}
	// Router area grows with the table.
	if r.Metrics["routerGE_w64"] <= r.Metrics["routerGE_w8"] {
		t.Fatal("router area not monotone in wheel size")
	}
}

func TestAblationCooldown(t *testing.T) {
	r, err := AblationCooldown()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["setup_cd16"] <= r.Metrics["setup_cd0"] {
		t.Fatal("cooldown does not cost setup time")
	}
}

func TestAblationTreeDepth(t *testing.T) {
	r, err := AblationTreeDepth()
	if err != nil {
		t.Fatal(err)
	}
	// A central host yields a shallower tree than a corner host.
	if r.Metrics["depth_host11"] >= r.Metrics["depth_host00"] {
		t.Fatal("central host not shallower")
	}
}

func TestAblationQueueDepth(t *testing.T) {
	r, err := AblationQueueDepth()
	if err != nil {
		t.Fatal(err)
	}
	// Deep queues attain the reservation; depth 2 cannot (credit
	// round-trip over 5 hops exceeds 2 words' worth of slots).
	if r.Metrics["rate_d32"] < 0.24 {
		t.Fatalf("deep queue rate = %v, want ~0.25", r.Metrics["rate_d32"])
	}
	if r.Metrics["rate_d2"] >= r.Metrics["rate_d32"] {
		t.Fatal("shallow queue not throttled")
	}
}

func TestModelVsModelArea(t *testing.T) {
	r, err := ModelVsModelArea()
	if err != nil {
		t.Fatal(err)
	}
	// Every competitor architecture costs more than the TDM router in a
	// like-for-like structural comparison.
	if r.Metrics["vc8_ratio"] <= 2 {
		t.Fatalf("8-VC router only %.2fx daelite", r.Metrics["vc8_ratio"])
	}
	if r.Metrics["aelite_ratio"] <= 1 {
		t.Fatalf("aelite router ratio %.2fx", r.Metrics["aelite_ratio"])
	}
}

// TestLatencyBoundsHoldForRandomConnections cross-checks analysis against
// simulation: for random connections under light load, the measured worst
// end-to-end latency never exceeds the analytical guarantee.
func TestLatencyBoundsHoldForRandomConnections(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		if err := latencyBoundOnce(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestAttainedBandwidth(t *testing.T) {
	r, err := AttainedBandwidth()
	if err != nil {
		t.Fatal(err)
	}
	// Under saturation every connection attains (essentially all of)
	// its reservation.
	if got := r.Metrics["worst_fraction"]; got < 0.97 || got > 1.03 {
		t.Fatalf("worst attained/reserved = %.3f, want ~1.0", got)
	}
}

func TestFaultRepair(t *testing.T) {
	r, err := FaultRepair()
	if err != nil {
		t.Fatal(err)
	}
	// Repair is two set-up transactions through the tree: far cheaper
	// than re-establishing the connection with register writes.
	if got := r.Metrics["resetup_speedup"]; got < 2 {
		t.Fatalf("repair speedup = %.1fx, want > 2x", got)
	}
	if r.Metrics["repair_cycles"] <= 0 {
		t.Fatal("repair not timed")
	}
	// The unaffected stream must lose nothing; the victim stays in order
	// across the repair (losses are gaps, never reorderings).
	if r.Metrics["bystander_loss"] != 0 || r.Metrics["bystander_ooo"] != 0 {
		t.Fatalf("bystander loss %v ooo %v", r.Metrics["bystander_loss"], r.Metrics["bystander_ooo"])
	}
	if r.Metrics["victim_ooo"] != 0 {
		t.Fatalf("victim out-of-order = %v", r.Metrics["victim_ooo"])
	}
	// The chaos run replays bit-identically from its seed.
	if r.Metrics["deterministic"] != 1 {
		t.Fatal("replay diverged")
	}
}

func TestAblationLongLinks(t *testing.T) {
	r, err := AblationLongLinks()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["latency_s4"] <= r.Metrics["latency_s0"] {
		t.Fatal("pipeline stages cost no latency")
	}
	if r.Metrics["setupwords_s4"] <= r.Metrics["setupwords_s0"] {
		t.Fatal("padding words missing from setup packets")
	}
}

func TestMulticastInjectionEfficiency(t *testing.T) {
	r, err := MulticastTreeVsUnicast()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics["daelite_inj_per_word"]; got != 1 {
		t.Fatalf("daelite injections/word = %v, want 1 (tree replicates in routers)", got)
	}
	if got := r.Metrics["aelite_inj_per_word"]; got != 2 {
		t.Fatalf("aelite injections/word = %v, want 2 (one per destination)", got)
	}
}

func TestEnergyPerWord(t *testing.T) {
	r, err := EnergyPerWord()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["daelite_pj_per_word"] >= r.Metrics["aelite_pj_per_word"] {
		t.Fatalf("daelite %.1f pJ/word not below aelite %.1f",
			r.Metrics["daelite_pj_per_word"], r.Metrics["aelite_pj_per_word"])
	}
	// The structural gap (2 vs 3 register stages + headers) puts the
	// reduction well above 10%.
	if got := r.Metrics["energy_reduction"]; got < 0.10 || got > 0.60 {
		t.Fatalf("energy reduction = %.2f, want in [0.10, 0.60]", got)
	}
}

func TestSlotPlacement(t *testing.T) {
	r, err := SlotPlacement()
	if err != nil {
		t.Fatal(err)
	}
	// Spread slots strictly improve both the bound and the measurement.
	if r.Metrics["spread_bound"] >= r.Metrics["clustered_bound"] {
		t.Fatalf("spread bound %v not below clustered %v",
			r.Metrics["spread_bound"], r.Metrics["clustered_bound"])
	}
	if r.Metrics["spread_worst"] >= r.Metrics["clustered_worst"] {
		t.Fatalf("spread measured worst %v not below clustered %v",
			r.Metrics["spread_worst"], r.Metrics["clustered_worst"])
	}
	// Measurements respect their bounds.
	if r.Metrics["spread_worst"] > r.Metrics["spread_bound"]+2 ||
		r.Metrics["clustered_worst"] > r.Metrics["clustered_bound"]+2 {
		t.Fatal("measured worst exceeds analytical bound")
	}
}

func TestPartialReconfig(t *testing.T) {
	r, err := PartialReconfig()
	if err != nil {
		t.Fatal(err)
	}
	// A graft is a single small packet: cheaper than the initial
	// set-up (which carries the full path plus register packets).
	if r.Metrics["graft_2"] >= r.Metrics["full_setup"] {
		t.Fatalf("graft (%v cycles) not cheaper than full setup (%v)",
			r.Metrics["graft_2"], r.Metrics["full_setup"])
	}
}

func TestConformanceSweep(t *testing.T) {
	r, err := ConformanceSweep()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["passed"] != r.Metrics["scenarios"] || r.Metrics["scenarios"] == 0 {
		t.Fatalf("passed %v of %v scenarios", r.Metrics["passed"], r.Metrics["scenarios"])
	}
	if r.Metrics["run_mismatches"] != 0 {
		t.Fatalf("%v scenarios diverged between two runs", r.Metrics["run_mismatches"])
	}
	// The smoke drill is only meaningful if both corruptions were seen.
	if r.Metrics["mutation_detected"] != 1 {
		t.Fatalf("mutation smoke missed a corruption: table=%v credit=%v",
			r.Metrics["mutation_table_violations"], r.Metrics["mutation_credit_violations"])
	}
}

// TestAllSmoke runs every Registry entry end to end, wall-clock ones
// included, and checks the table against what each entry returns: IDs
// are unique, the Result carries the entry's ID and Artifact, rendered
// text and metrics, and every Headline key names a metric the experiment
// really produces.
func TestAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite")
	}
	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		r, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if r.ID != e.ID || r.Artifact != e.Artifact {
			t.Errorf("%s: result is %q / %q, registry says %q / %q", e.ID, r.ID, r.Artifact, e.ID, e.Artifact)
		}
		if r.Text == "" || len(r.Metrics) == 0 {
			t.Errorf("%s: no rendered text or no metrics", e.ID)
		}
		for _, key := range e.Headline {
			if _, ok := r.Metrics[key]; !ok {
				t.Errorf("%s: headline metric %q missing", e.ID, key)
			}
		}
	}
}

// TestSelect pins the one selection rule: ID or artifact substring, both
// ignoring case, in Registry order; the empty string is the golden set.
func TestSelect(t *testing.T) {
	var golden []string
	for _, e := range Registry {
		if !e.WallClock {
			golden = append(golden, e.ID)
		}
	}
	for _, tc := range []struct {
		which string
		want  []string
	}{
		{"E3", []string{"E3"}},
		{"e3", []string{"E3"}},
		{"Table I", []string{"E1", "E2", "E3"}},
		{"E16", []string{"E16"}},
		{"fast-forward THROUGHPUT", []string{"E22"}},
		{"", golden},
		{"nonesuch", nil},
	} {
		var got []string
		for _, e := range Select(tc.which) {
			got = append(got, e.ID)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Select(%q) = %v, want %v", tc.which, got, tc.want)
		}
	}
}

// E23: the DNN pack's energy table must carry every compiled phase, and
// the accounting shape must hold — communication is a real but minority
// share next to compute and memory, and connection set-up is a small
// fraction of the active cycles (the fast-configuration claim at
// application level).
func TestDNNWorkload(t *testing.T) {
	r, err := DNNWorkload()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["phases"] != 5 {
		t.Fatalf("phases = %v, want 5 (3 broadcasts + 2 activation transfers)", r.Metrics["phases"])
	}
	if r.Metrics["delivered_words"] == 0 {
		t.Fatal("nothing delivered")
	}
	if s := r.Metrics["comm_share"]; s <= 0 || s >= 1 {
		t.Fatalf("comm share = %v, want a proper fraction", s)
	}
	if s := r.Metrics["setup_share_of_active"]; s <= 0 || s > 0.5 {
		t.Fatalf("set-up share = %v, want a small fraction of active cycles", s)
	}
}

// E24: every VOQ matrix of the switch pack is admissible by
// construction, so acceptance must be complete and delivery lossless;
// the hotspot matrix must visibly concentrate the hot egress's wheel
// relative to uniform.
func TestSwitchWorkload(t *testing.T) {
	r, err := SwitchWorkload()
	if err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []string{"uniform", "diagonal", "hotspot"} {
		if a := r.Metrics["accept_"+pattern]; a != 1 {
			t.Fatalf("%s acceptance = %v, want 1", pattern, a)
		}
		if r.Metrics["delivered_"+pattern] == 0 {
			t.Fatalf("%s delivered nothing", pattern)
		}
	}
	if r.Metrics["hot_slots_hotspot"] <= r.Metrics["hot_slots_uniform"] {
		t.Fatalf("hotspot concentrates %v slots vs uniform %v, want strictly more",
			r.Metrics["hot_slots_hotspot"], r.Metrics["hot_slots_uniform"])
	}
}
