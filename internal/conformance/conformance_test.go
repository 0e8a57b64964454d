package conformance

import (
	"math"
	"testing"

	"daelite/internal/core"
	"daelite/internal/slots"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
)

func openTestPlatform(t *testing.T) (*core.Platform, *core.Connection) {
	t.Helper()
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 3, Height: 3, NIsPerRouter: 1},
		core.DefaultParams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(2, 1, 0), SlotsFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 1_000_000); err != nil {
		t.Fatal(err)
	}
	return p, c
}

// TestModelMatchesAllocator pins the first differential: the model's
// fold over the live connections reproduces the allocator's occupancy
// words exactly, for unicast and multicast.
func TestModelMatchesAllocator(t *testing.T) {
	p, _ := openTestPlatform(t)
	mc, err := p.Open(core.ConnectionSpec{
		Src:      p.Mesh.NI(1, 1, 0),
		Dsts:     []topology.NodeID{p.Mesh.NI(0, 2, 0), p.Mesh.NI(2, 2, 0)},
		SlotsFwd: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(mc, 1_000_000); err != nil {
		t.Fatal(err)
	}
	m := NewModel(p)
	var conns []*core.Connection
	for _, c := range p.Connections() {
		conns = append(conns, c)
	}
	occ := m.LinkOccupancy(conns)
	nonEmpty := 0
	for _, l := range p.Mesh.Links() {
		want := occ[l.ID]
		got := p.Alloc.LinkOccupancy(l.ID)
		if got.Bits != want.Bits {
			t.Errorf("link %d: allocator %s, model %v", l.ID, got, want)
		}
		if got.Bits != 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no occupied links — vacuous check")
	}
}

// TestCheckerQuietOnHealthyPlatform: a healthy run with traffic must
// report zero violations across every check.
func TestCheckerQuietOnHealthyPlatform(t *testing.T) {
	sc := Generate(7)
	sc.FaultLink = false
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed() {
		t.Fatalf("healthy scenario failed: violations=%d failures=%v", r.Violations, r.Failures)
	}
}

// TestMutationSmoke is the harness's own fire drill: a seeded
// slot-table upset, a seeded credit corruption and a misrouted table
// entry must all be caught and reported through the telemetry registry,
// the misrouted words by their source NI (MutationSmoke checks that).
func TestMutationSmoke(t *testing.T) {
	res, err := MutationSmoke(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.SlotTableViolations == 0 {
		t.Error("slot-table corruption not detected")
	}
	if res.CreditViolations == 0 {
		t.Error("credit corruption not detected")
	}
	if res.Events == 0 {
		t.Error("no violation events reached the telemetry registry")
	}
	if res.StrayViolations == 0 {
		t.Error("misrouted words not detected")
	}
	t.Logf("stray word: %s", res.StrayDetail)
}

// TestDifferentialSweepWorkers runs each seeded scenario twice and
// requires bit-exact agreement plus a clean differential verdict (the
// name predates the removal of the kernel worker pool; it is kept so the
// suite's test IDs stay stable). The full 25-scenario sweep is the CI
// conformance job (daelite conform); the in-tree test keeps a
// smaller always-on slice.
func TestDifferentialSweepWorkers(t *testing.T) {
	n := 4
	if testing.Short() {
		n = 2
	}
	entries, err := Sweep(100, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if len(e.Mismatches) > 0 {
			t.Errorf("seed %d (%s): results diverged between two runs: %v",
				e.Scenario.Seed, e.Scenario, e.Mismatches)
		}
		for _, r := range []*Result{e.Reference, e.Compared} {
			if !r.Passed() {
				t.Errorf("seed %d: violations=%d failures=%v",
					e.Scenario.Seed, r.Violations, r.Failures)
			}
		}
	}
}

// TestGenerateDeterministic: the same seed expands to the same
// scenario.
func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(42), Generate(42)
	if a.String() != b.String() || len(a.Plans) != len(b.Plans) {
		t.Fatalf("seed 42 expanded differently: %s vs %s", a, b)
	}
	if Generate(42).String() == Generate(43).String() &&
		Generate(43).String() == Generate(44).String() {
		t.Fatal("adjacent seeds all expanded identically — generator ignores the seed?")
	}
}

// TestMaxGapSlots pins the scheduling gap the model's SchedMax is built
// from: slots.Mask.MaxGap, the worst circular wait to the next send slot.
func TestMaxGapSlots(t *testing.T) {
	cases := []struct {
		bits uint64
		size int
		want int
	}{
		{0b00000001, 8, 8},    // single slot: whole wheel
		{0b00010001, 8, 4},    // evenly spread
		{0b00000011, 8, 7},    // adjacent pair: long wrap gap
		{0b11111111, 8, 1},    // every slot
		{0, 8, math.MaxInt32}, // empty mask: never served
	}
	for _, c := range cases {
		m := slots.Mask{Bits: c.bits, Size: c.size}
		if got := m.MaxGap(); got != c.want {
			t.Errorf("MaxGap(%08b/%d) = %d, want %d", c.bits, c.size, got, c.want)
		}
	}
}

// TestLatencyLawSingleSlot pins the closed-form traversal constant
// against a hand-built platform: SlotWords × path slot advance.
func TestLatencyLawSingleSlot(t *testing.T) {
	p, c := openTestPlatform(t)
	m := NewModel(p)
	lat := m.UnicastLatency(c)
	adv := uint64(p.Mesh.Graph.PathSlotAdvance(c.Fwd.Paths[0].Path))
	want := uint64(p.Params.SlotWords) * adv
	if lat.NetMin != want || lat.NetMax != want {
		t.Fatalf("model net latency [%d,%d], want exactly %d", lat.NetMin, lat.NetMax, want)
	}
}

// TestCheckerCountsInRegistry: violations surface as labelled telemetry
// counters, not just internal state.
func TestCheckerCountsInRegistry(t *testing.T) {
	p, c := openTestPlatform(t)
	reg := telemetry.NewRegistry()
	ck := Attach(p, reg, Options{SampleEvery: 16, LineRate: true})
	ck.Resync()
	p.Run(64)
	if ck.Violations() != 0 {
		t.Fatalf("healthy platform: %d violations", ck.Violations())
	}
	// Corrupt the hardware directly: clear the destination NI's receive
	// duty so the table check must fire on the next sample.
	dst := p.NI(c.Spec.Dst)
	if err := dst.Table().SetReceive(c.Fwd.Paths[0].DestSlots(p.Mesh.Graph), slots.NoChannel); err != nil {
		t.Fatal(err)
	}
	p.Run(64)
	if ck.ViolationCount(CheckTable) == 0 {
		t.Fatal("cleared NI receive duty not detected")
	}
	if got := ck.ViolationCount(CheckTable); got == 0 {
		t.Fatalf("registry counter not incremented: %d", got)
	}
	if len(reg.Events()) == 0 {
		t.Fatal("no telemetry events emitted")
	}
}
