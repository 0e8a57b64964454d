package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"daelite/internal/alloc"
	"daelite/internal/slots"
	"daelite/internal/topology"
)

func TestGuaranteedBandwidth(t *testing.T) {
	if got := GuaranteedBandwidth(slots.MaskOf(8, 0, 1)); got != 0.25 {
		t.Fatalf("bandwidth = %v, want 0.25", got)
	}
	if got := GuaranteedBandwidth(slots.MaskOf(16, 0)); got != 1.0/16 {
		t.Fatalf("bandwidth = %v", got)
	}
}

// TestHeaderOverheadBrackets pins the paper's numbers: aelite header
// overhead is 33% for one-slot packets and 11% for three-slot packets;
// daelite has none.
func TestHeaderOverheadBrackets(t *testing.T) {
	if got := HeaderOverheadAelite(3, 1); got < 0.33 || got > 0.34 {
		t.Fatalf("1-slot packet overhead = %v, want ~1/3", got)
	}
	if got := HeaderOverheadAelite(3, 3); got < 0.11 || got > 0.12 {
		t.Fatalf("3-slot packet overhead = %v, want ~1/9", got)
	}
	// Clamping.
	if HeaderOverheadAelite(3, 0) != HeaderOverheadAelite(3, 1) {
		t.Fatal("span clamp low broken")
	}
	if HeaderOverheadAelite(3, 9) != HeaderOverheadAelite(3, 3) {
		t.Fatal("span clamp high broken")
	}
}

// TestConfigSlotLoss pins the paper's 6.25% at a 16-slot wheel.
func TestConfigSlotLoss(t *testing.T) {
	if got := ConfigSlotLoss(1, 16); got != 0.0625 {
		t.Fatalf("loss = %v, want 0.0625", got)
	}
	if got := ConfigSlotLoss(1, 32); got != 0.03125 {
		t.Fatalf("loss = %v", got)
	}
}

func TestMaxSlotGapCycles(t *testing.T) {
	// Slots {0,4} of 8 with 2-word slots: worst gap is 4 slots = 8
	// cycles.
	if got := MaxSlotGapCycles(slots.MaskOf(8, 0, 4), 2); got != 8 {
		t.Fatalf("gap = %d, want 8", got)
	}
	// A single slot waits a full wheel.
	if got := MaxSlotGapCycles(slots.MaskOf(8, 3), 2); got != 16 {
		t.Fatalf("gap = %d, want 16", got)
	}
	// All slots owned: one slot.
	full := slots.Mask{Bits: 0xFF, Size: 8}
	if got := MaxSlotGapCycles(full, 2); got != 2 {
		t.Fatalf("gap = %d, want 2", got)
	}
	// Empty mask: effectively unbounded.
	if got := MaxSlotGapCycles(slots.NewMask(8), 2); got < 1<<30 {
		t.Fatalf("empty mask gap = %d", got)
	}
}

func TestMaxSlotGapProperty(t *testing.T) {
	f := func(bits uint16, sw uint8) bool {
		mask := slots.Mask{Bits: uint64(bits), Size: 16}
		if mask.Empty() {
			return true
		}
		slotWords := int(sw%3) + 1
		gap := MaxSlotGapCycles(mask, slotWords)
		// Bounded by a full wheel, at least one slot.
		return gap >= slotWords && gap <= 16*slotWords
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSmallSlotsImproveSchedulingLatency is experiment E8's analytical
// core: with the same bandwidth fraction, smaller slots reduce the
// worst-case wait. daelite can use 2-word (even 1-word) slots; aelite is
// stuck at 3 because of header amortization.
func TestSmallSlotsImproveSchedulingLatency(t *testing.T) {
	mask := slots.MaskOf(8, 0, 4)
	w1 := MaxSlotGapCycles(mask, 1)
	w2 := MaxSlotGapCycles(mask, 2)
	w3 := MaxSlotGapCycles(mask, 3)
	if !(w1 < w2 && w2 < w3) {
		t.Fatalf("scheduling latency not monotone in slot size: %d %d %d", w1, w2, w3)
	}
}

func TestPathLatency(t *testing.T) {
	// 5-link unpipelined daelite path with 2-word slots: 10 cycles.
	// Matches the measured value in core's
	// TestTraversalLatencyTwoCyclesPerHop.
	if got := TraversalCycles(5, 2); got != 10 {
		t.Fatalf("daelite latency = %d", got)
	}
	// Same path in aelite: 4 routers x 3 + 2 = 14, as measured in the
	// aelite package test.
	if got := PathLatencyCyclesAelite(5); got != 14 {
		t.Fatalf("aelite latency = %d", got)
	}
	if PathLatencyCyclesAelite(0) != 2 {
		t.Fatal("degenerate path latency wrong")
	}
	// The reduction for long paths approaches the paper's 33%.
	d := float64(TraversalCycles(10, 2))
	a := float64(PathLatencyCyclesAelite(10) - 2) // router portion
	if red := 1 - (d-2)/a; red < 0.30 || red > 0.36 {
		t.Fatalf("per-hop latency reduction = %.2f, want ~0.33", red)
	}
}

func TestWorstCaseLatencyComposition(t *testing.T) {
	mask := slots.MaskOf(8, 0)
	got := WorstCaseLatency(mask, 2, 4)
	want := 16 + 2 + 8
	if got != want {
		t.Fatalf("WCL = %d, want %d", got, want)
	}
}

// TestSetupWordsMatchesFig6 pins the paper's Fig. 6 example: an 8-slot
// wheel and a 3-link path need 1 header + 2 mask words + 4 pairs x 2 = 11
// words — the three 32-bit host words of the example.
func TestSetupWordsMatchesFig6(t *testing.T) {
	m, err := topology.NewMesh(topology.MeshSpec{Width: 2, Height: 1, NIsPerRouter: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := m.ShortestPath(m.NI(0, 0, 0), m.NI(1, 0, 0))
	if len(path) != 3 {
		t.Fatalf("path has %d links, want 3", len(path))
	}
	if got := PathSetupCost(m.Graph, path, 8, nil, 0); got.Packets != 1 || got.Words != 11 {
		t.Fatalf("setup cost = %+v, want 1 packet of 11 words", got)
	}
}

func TestSetupTimeModels(t *testing.T) {
	d := SetupCyclesDaeliteIdeal(26, 4, 4) // two 4-link paths, 13 words each
	a := SetupCyclesAeliteIdeal(2, 1, 4, 16, 3)
	if d <= 0 || a <= 0 {
		t.Fatal("non-positive setup estimates")
	}
	// The order-of-magnitude claim must hold analytically too.
	if ratio := float64(a) / float64(d); ratio < 5 {
		t.Fatalf("aelite/daelite setup ratio = %.1f, want >= 5", ratio)
	}
	// daelite set-up is independent of slot count, aelite's is not.
	if SetupCyclesAeliteIdeal(8, 1, 4, 16, 3) <= a {
		t.Fatal("aelite setup not monotone in slots")
	}
}

func TestLRServer(t *testing.T) {
	s := LRServer{Theta: 26, Rho: 0.25}
	// A burst of 8 words adds 8/0.25 = 32 cycles to the bound.
	if got := s.MaxDelay(8); got != s.Theta+32 {
		t.Fatalf("MaxDelay = %v", got)
	}
	zero := LRServer{}
	if !math.IsInf(zero.MaxDelay(1), 1) {
		t.Fatal("zero-rate server must have infinite delay bound")
	}
}

// TestUnicastGuaranteesPipelined pins the per-connection bound on a path
// with pipelined links: traversal counts slot advance, not links, and
// the bandwidth is the wheel share summed over every path.
func TestUnicastGuaranteesPipelined(t *testing.T) {
	m, err := topology.NewMesh(topology.MeshSpec{Width: 3, Height: 1, NIsPerRouter: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range m.Links() {
		if m.Node(l.From).Kind == topology.Router && m.Node(l.To).Kind == topology.Router {
			m.Graph.SetPipeline(l.ID, 2)
		}
	}
	path := m.ShortestPath(m.NI(0, 0, 0), m.NI(2, 0, 0))
	u := &alloc.Unicast{Paths: []alloc.PathAlloc{
		{Path: path, InjectSlots: slots.MaskOf(16, 0)},
		{Path: path, InjectSlots: slots.MaskOf(16, 8)},
	}}
	g := UnicastGuarantees(m.Graph, u, 2)
	// Each path: a 16-slot wait, one slot of serialization, and 4 links
	// plus 2x2 pipeline stages of advance: 32 + 2 + 16.
	if g.WorstCaseLatency != 50 {
		t.Fatalf("worst-case latency = %d, want 50", g.WorstCaseLatency)
	}
	if g.Bandwidth != 2.0/16 || g.Server.Rho != g.Bandwidth || g.Server.Theta != 50 {
		t.Fatalf("guarantees = %+v", g)
	}
}
