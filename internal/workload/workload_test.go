package workload

import (
	"bytes"
	"strings"
	"testing"

	"daelite/internal/spec"
)

// testDNNSpec is a small feed-forward net on a 4x4 mesh: two memory
// tiles, three layers, multicast weight broadcasts and round-robin
// activation unicasts.
func testDNNSpec() *Spec {
	return &Spec{
		Kind: "dnn", Name: "dnn-test", Seed: 7,
		Mesh: spec.MeshSpec{Width: 4, Height: 4},
		DNN: &DNNSpec{
			MemoryTiles: []spec.Coord{{X: 0, Y: 0}, {X: 3, Y: 0}},
			Layers: []LayerSpec{
				{Name: "conv1", Neurons: 64, Tiles: []spec.Coord{{X: 1, Y: 1}, {X: 2, Y: 1}}, WeightBytes: 256, ActivationBytes: 128},
				{Name: "conv2", Neurons: 32, Tiles: []spec.Coord{{X: 1, Y: 2}, {X: 2, Y: 2}}, WeightBytes: 384, ActivationBytes: 96},
				{Name: "fc", Neurons: 10, Tiles: []spec.Coord{{X: 3, Y: 3}}, WeightBytes: 160},
			},
		},
	}
}

// testSwitchSpec is a Tiny Tera-style pack on a 3x3 mesh cycling
// through uniform, diagonal and hotspot matrices.
func testSwitchSpec() *Spec {
	return &Spec{
		Kind: "switch", Name: "tinytera-test", Seed: 11,
		Mesh:   spec.MeshSpec{Width: 3, Height: 3},
		Switch: &SwitchSpec{Conns: 6, Cells: 4, CellWords: 8},
	}
}

func TestCompileDNN(t *testing.T) {
	c, err := Compile(testDNNSpec())
	if err != nil {
		t.Fatal(err)
	}
	// 3 layers: 3 broadcast phases + 2 activation phases.
	if len(c.Phases) != 5 {
		t.Fatalf("got %d phases, want 5", len(c.Phases))
	}
	if c.Phases[0].Kind != "broadcast" || c.Phases[1].Kind != "activation" {
		t.Fatalf("unexpected phase kinds %q, %q", c.Phases[0].Kind, c.Phases[1].Kind)
	}
	// conv1 weights: 256 bytes / 4 = 64 words, multicast to 2 tiles.
	b := c.Phases[0]
	if len(b.Conns) != 1 || len(b.Conns[0].Dsts) != 2 || b.Conns[0].Words != 64 {
		t.Fatalf("conv1 broadcast: %+v", b.Conns)
	}
	if b.MMemWords != 64 {
		t.Fatalf("conv1 MMemWords = %d, want 64", b.MMemWords)
	}
	if b.MACs != 64*64 {
		t.Fatalf("conv1 MACs = %d, want %d", b.MACs, 64*64)
	}
	// conv1 activations: 128/4 = 32 words over 2 tiles -> 16 words per conn.
	a := c.Phases[1]
	if len(a.Conns) != 2 || a.Conns[0].Words != 16 {
		t.Fatalf("conv1 activations: %+v", a.Conns)
	}
	// fc has one tile: broadcast compiles to unicast.
	last := c.Phases[len(c.Phases)-1]
	if last.Kind != "broadcast" || last.Conns[0].Dst == nil {
		t.Fatalf("fc broadcast should be unicast: %+v", last.Conns)
	}
}

func TestCompileSwitch(t *testing.T) {
	c, err := Compile(testSwitchSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Phases) != 3 {
		t.Fatalf("got %d phases, want 3", len(c.Phases))
	}
	kinds := []string{c.Phases[0].Kind, c.Phases[1].Kind, c.Phases[2].Kind}
	if kinds[0] != "uniform" || kinds[1] != "diagonal" || kinds[2] != "hotspot" {
		t.Fatalf("unexpected matrix cycle %v", kinds)
	}
	for _, ph := range c.Phases {
		if len(ph.Conns) == 0 {
			t.Fatalf("phase %s drew no connections", ph.Name)
		}
		for _, cn := range ph.Conns {
			if cn.Words != 4*8 {
				t.Fatalf("phase %s conn words = %d, want 32", ph.Name, cn.Words)
			}
		}
	}
	// Compilation is a pure function of the spec.
	c2, err := Compile(testSwitchSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Phases {
		if len(c.Phases[i].Conns) != len(c2.Phases[i].Conns) {
			t.Fatalf("phase %d: %d vs %d conns across identical compiles", i, len(c.Phases[i].Conns), len(c2.Phases[i].Conns))
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []*Spec{testDNNSpec(), testSwitchSpec()} {
		blob, err := s.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if back.Kind != s.Kind || back.Seed != s.Seed {
			t.Fatalf("%s: round trip lost fields", s.Name)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"unknown kind", func(s *Spec) { s.Kind = "fft" }, "unknown pack kind"},
		{"missing section", func(s *Spec) { s.DNN = nil }, "requires a dnn section"},
		{"both sections", func(s *Spec) { s.Switch = &SwitchSpec{} }, "must not carry"},
		{"no memory tiles", func(s *Spec) { s.DNN.MemoryTiles = nil }, "memory tile"},
		{"no layers", func(s *Spec) { s.DNN.Layers = nil }, "at least one layer"},
		{"zero neurons", func(s *Spec) { s.DNN.Layers[0].Neurons = 0 }, "neurons must be positive"},
		{"zero weights", func(s *Spec) { s.DNN.Layers[0].WeightBytes = 0 }, "zero-size transfers"},
		{"zero activations", func(s *Spec) { s.DNN.Layers[0].ActivationBytes = 0 }, "zero-size transfers"},
		{"tile out of range", func(s *Spec) { s.DNN.Layers[0].Tiles[0].X = 9 }, "outside"},
		{"negative NI", func(s *Spec) { s.DNN.Layers[0].Tiles[0].NI = -1 }, "out of range"},
		{"duplicate tile", func(s *Spec) { s.DNN.Layers[0].Tiles[1] = s.DNN.Layers[0].Tiles[0] }, "duplicate tile"},
	}
	for _, tc := range cases {
		s := testDNNSpec()
		tc.mutate(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.want)
		}
	}

	sw := testSwitchSpec()
	sw.Switch.Pattern = "avalanche"
	if err := sw.Validate(); err == nil || !strings.Contains(err.Error(), "unknown switch pattern") {
		t.Errorf("bad pattern: %v", err)
	}
	sw = testSwitchSpec()
	sw.Switch.HotspotFrac = 1.5
	if err := sw.Validate(); err == nil || !strings.Contains(err.Error(), "hotspotFrac") {
		t.Errorf("bad hotspotFrac: %v", err)
	}
}

func TestCompileRejectsOverReservation(t *testing.T) {
	// 9 source tiles all funnel into one next-layer tile: the activation
	// phase would need 9 ingress slots against an 8-slot wheel. The
	// compiler must refuse rather than emit an inadmissible phase.
	s := testDNNSpec()
	var tiles []spec.Coord
	for i := 0; i < 9; i++ {
		tiles = append(tiles, spec.Coord{X: 1 + i%3, Y: 1 + i/3})
	}
	s.DNN.Layers = []LayerSpec{
		{Name: "wide", Neurons: 16, Tiles: tiles, WeightBytes: 64, ActivationBytes: 64},
		{Name: "narrow", Neurons: 4, Tiles: []spec.Coord{{X: 0, Y: 3}}, WeightBytes: 16},
	}
	if _, err := Compile(s); err == nil {
		t.Fatal("compiler accepted a phase that over-reserves an NI")
	}
	// The memory-tile collision is also a compile error.
	s = testDNNSpec()
	s.DNN.Layers[0].Tiles[0] = s.DNN.MemoryTiles[0]
	if _, err := Compile(s); err == nil || !strings.Contains(err.Error(), "memory tile") {
		t.Fatalf("memory-tile collision: %v", err)
	}
}

func TestRunDNNPack(t *testing.T) {
	c, err := Compile(testDNNSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("dnn pack failed:\n%s\n%v", res.Summary(), res.Failures)
	}
	var offered uint64
	for i := range c.Phases {
		offered += c.Phases[i].OfferedWords()
	}
	if res.Delivered != offered {
		t.Fatalf("delivered %d words, offered %d", res.Delivered, offered)
	}
	for _, pr := range res.Phases {
		if !pr.Drained {
			t.Errorf("phase %s did not drain", pr.Name)
		}
		if pr.NoFit != 0 {
			t.Errorf("phase %s: %d nofit on an idle mesh", pr.Name, pr.NoFit)
		}
		if pr.Forwarded == 0 {
			t.Errorf("phase %s forwarded nothing", pr.Name)
		}
	}
}

func TestRunSwitchPack(t *testing.T) {
	c, err := Compile(testSwitchSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("switch pack failed:\n%s\n%v", res.Summary(), res.Failures)
	}
	if res.Opened == 0 || res.Delivered == 0 {
		t.Fatalf("switch pack opened %d, delivered %d", res.Opened, res.Delivered)
	}
}

func TestSweepBitExact(t *testing.T) {
	c, err := Compile(testSwitchSpec())
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Sweep(c, true)
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Passed() {
		t.Fatalf("sweep failed: %v", sr.Mismatches)
	}
	if sr.Compared.Skipped == 0 {
		t.Fatalf("fast-forwarded run never skipped")
	}
}

func TestWorkloadMutationSmoke(t *testing.T) {
	c, err := Compile(testDNNSpec())
	if err != nil {
		t.Fatal(err)
	}
	caught, err := MutationSmoke(c)
	if err != nil {
		t.Fatal(err)
	}
	if caught == 0 {
		t.Fatal("planted slot-table flip during a broadcast phase went undetected")
	}
}

func TestChaosRunStaysDeterministic(t *testing.T) {
	c, err := Compile(testDNNSpec())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(c, RunOptions{ChaosEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c, RunOptions{ChaosEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint || a.Delivered != b.Delivered {
		t.Fatalf("chaos runs diverged: %016x/%d vs %016x/%d", a.Fingerprint, a.Delivered, b.Fingerprint, b.Delivered)
	}
	if a.Violations != 0 {
		t.Fatalf("chaos run reported %d violations", a.Violations)
	}
	faulted := false
	for _, pr := range a.Phases {
		faulted = faulted || pr.Faulted
	}
	if !faulted {
		t.Fatal("chaos run planted no faults")
	}
}

// The hotspot switch pack loads the hot egress at 7/8 of a link, so a
// chaos fault on it is deterministically unrepairable: re-admission finds
// no spare capacity, the failed repair's tear-down stands, and the run
// must finish degraded instead of erroring at phase teardown.
func TestChaosUnrepairableRunsDegraded(t *testing.T) {
	c, err := Compile(ExampleTinyTera("hotspot"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, RunOptions{ChaosEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("degraded chaos run failed: %v", res.Failures)
	}
	faulted := false
	for _, pr := range res.Phases {
		faulted = faulted || pr.Faulted
	}
	if !faulted {
		t.Fatal("chaos run planted no faults")
	}
}

// TestResultReportRendersEveryPhase: the shared -workload report table
// carries one row per phase plus the summary verdict line.
func TestResultReportRendersEveryPhase(t *testing.T) {
	c, err := Compile(testDNNSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Report()
	for _, ph := range c.Phases {
		if !strings.Contains(out, ph.Name) {
			t.Fatalf("report omits phase %s:\n%s", ph.Name, out)
		}
	}
	if !strings.Contains(out, "PASS") {
		t.Fatalf("report omits the summary verdict:\n%s", out)
	}
}
