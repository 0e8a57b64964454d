package router

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"daelite/internal/cfgproto"
	"daelite/internal/configtree"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/slots"
)

func params() Params { return Params{Wheel: 8, SlotWords: 2} }

// driver drives a wire with a programmed sequence of flits.
type driver struct {
	wire *sim.Reg[phit.Flit]
	// at[cycle+1] is the value the wire should present during that
	// cycle.
	at map[uint64]phit.Flit
}

func (d *driver) Name() string { return "driver" }
func (d *driver) Eval(c uint64) {
	if f, ok := d.at[c+1]; ok {
		d.wire.Set(f)
	} else {
		d.wire.Set(phit.Idle())
	}
}

func newRouter(t *testing.T, s *sim.Simulator, numIn, numOut int) *Router {
	t.Helper()
	r, err := New(s, "R", 1, numIn, numOut, params())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRouterValidation(t *testing.T) {
	s := sim.New()
	if _, err := New(s, "R", 1, 3, 3, Params{Wheel: 0, SlotWords: 2}); err == nil {
		t.Fatal("zero wheel accepted")
	}
	if _, err := New(s, "R", 1, 3, 3, Params{Wheel: 8, SlotWords: 0}); err == nil {
		t.Fatal("zero slot words accepted")
	}
	if _, err := New(s, "R", 1, 8, 8, params()); err == nil {
		t.Fatal("arity beyond config encoding accepted")
	}
}

// TestBlindTwoCycleForwarding pins the hop timing: a flit on the input
// wire during slot s appears on the programmed output wire exactly two
// cycles later (slot s+1), regardless of its contents.
func TestBlindTwoCycleForwarding(t *testing.T) {
	s := sim.New()
	r := newRouter(t, s, 2, 2)
	in := sim.NewReg(s, phit.Idle())
	r.ConnectInput(0, in)
	// Program output 1 to take input 0 during slot 3 (the output slot
	// for data arriving in slot 2).
	if err := r.Table().Set(1, slots.MaskOf(8, 3), 0); err != nil {
		t.Fatal(err)
	}
	d := &driver{wire: in, at: map[uint64]phit.Flit{
		4: {Valid: true, Data: 0xAA}, // slot 2, word 0
		5: {Valid: true, Data: 0xBB}, // slot 2, word 1
	}}
	s.Add(d)
	var got []phit.Flit
	s.AddProbe(func(c uint64) {
		if f := r.OutputWire(1).Get(); f.Valid {
			got = append(got, f)
		}
		if f := r.OutputWire(0).Get(); f.Valid {
			t.Fatalf("unprogrammed output drove data at cycle %d", c)
		}
	})
	// Run exactly one wheel plus margin; the outputs are at cycles 6,7.
	for c := uint64(0); c < 16; c++ {
		s.Step()
		switch c + 1 {
		case 6:
			if len(got) != 1 || got[0].Data != 0xAA {
				t.Fatalf("cycle 6: got %v", got)
			}
		case 7:
			if len(got) != 2 || got[1].Data != 0xBB {
				t.Fatalf("cycle 7: got %v", got)
			}
		}
	}
	if len(got) != 2 {
		t.Fatalf("forwarded %d words, want 2", len(got))
	}
}

// TestMulticastFanOut: two outputs naming the same input in the same slot
// both carry the data (Fig. 7's router mechanism).
func TestMulticastFanOut(t *testing.T) {
	s := sim.New()
	r := newRouter(t, s, 2, 3)
	in := sim.NewReg(s, phit.Idle())
	r.ConnectInput(1, in)
	for _, out := range []int{0, 2} {
		if err := r.Table().Set(out, slots.MaskOf(8, 2), 1); err != nil {
			t.Fatal(err)
		}
	}
	s.Add(&driver{wire: in, at: map[uint64]phit.Flit{
		2: {Valid: true, Data: 0x77}, // slot 1 word 0 on the input wire
	}})
	seen := map[int]bool{}
	s.AddProbe(func(c uint64) {
		for _, out := range []int{0, 1, 2} {
			if f := r.OutputWire(out).Get(); f.Valid {
				if f.Data != 0x77 {
					t.Fatalf("output %d corrupted: %v", out, f)
				}
				seen[out] = true
			}
		}
	})
	s.Run(8)
	if !seen[0] || !seen[2] {
		t.Fatalf("multicast outputs missing: %v", seen)
	}
	if seen[1] {
		t.Fatal("unprogrammed output carried data")
	}
}

// TestIdleInputsStayIdle: a router with an empty table never drives
// anything.
func TestIdleInputsStayIdle(t *testing.T) {
	s := sim.New()
	r := newRouter(t, s, 3, 3)
	in := sim.NewReg(s, phit.Idle())
	r.ConnectInput(0, in)
	s.Add(&driver{wire: in, at: map[uint64]phit.Flit{
		2: {Valid: true, Data: 1}, 3: {Valid: true, Data: 2},
	}})
	s.AddProbe(func(uint64) {
		for o := 0; o < 3; o++ {
			if r.OutputWire(o).Get().Valid {
				t.Fatal("empty table forwarded data")
			}
		}
	})
	s.Run(20)
}

// submit queues a packet on mod and runs until it has crossed a tree of
// the given depth.
func submit(t *testing.T, s *sim.Simulator, mod *configtree.Module, pkt cfgproto.PathSetup, depth int) {
	t.Helper()
	words, err := pkt.Words()
	if err != nil {
		t.Fatal(err)
	}
	if err := mod.SubmitPacket(words); err != nil {
		t.Fatal(err)
	}
	s.Run(uint64(len(words) + 2*depth + 8))
}

// TestConfigSubmoduleUpdatesTable sends a path set-up packet down the
// configuration tree to the router and checks the slot table.
func TestConfigSubmoduleUpdatesTable(t *testing.T) {
	s := sim.New()
	r := newRouter(t, s, 3, 3)
	mod := configtree.New(s, "cfg", configtree.DefaultParams())
	r.ConnectConfigIn(mod.ForwardWire())
	submit(t, s, mod, cfgproto.PathSetup{
		Mask:  slots.MaskOf(8, 2, 6),
		Pairs: []cfgproto.Pair{{Element: 1, Spec: cfgproto.RouterSpec(2, 0)}},
	}, 0)
	if got := r.Table().Input(0, 2); got != 2 {
		t.Fatalf("table[0][2] = %d, want 2", got)
	}
	if got := r.Table().Input(0, 6); got != 2 {
		t.Fatalf("table[0][6] = %d, want 2", got)
	}
	if got := r.Table().Input(0, 3); got != slots.NoInput {
		t.Fatal("config leaked to other slots")
	}
	// Tear down slot 2 only.
	submit(t, s, mod, cfgproto.PathSetup{
		Mask:  slots.MaskOf(8, 2),
		Pairs: []cfgproto.Pair{{Element: 1, Spec: cfgproto.RouterSpec(slots.NoInput, 0)}},
	}, 0)
	if got := r.Table().Input(0, 2); got != slots.NoInput {
		t.Fatal("teardown failed")
	}
	if got := r.Table().Input(0, 6); got != 2 {
		t.Fatal("teardown hit the wrong slot")
	}
}

// TestConfigIgnoresOtherElements: packets for other IDs leave the table
// untouched, and an out-of-range output port addressed to this router is
// dropped.
func TestConfigIgnoresOtherElements(t *testing.T) {
	s := sim.New()
	r := newRouter(t, s, 3, 3)
	mod := configtree.New(s, "cfg", configtree.DefaultParams())
	r.ConnectConfigIn(mod.ForwardWire())
	submit(t, s, mod, cfgproto.PathSetup{
		Mask:  slots.MaskOf(8, 1),
		Pairs: []cfgproto.Pair{{Element: 9, Spec: cfgproto.RouterSpec(1, 1)}},
	}, 0)
	submit(t, s, mod, cfgproto.PathSetup{
		Mask:  slots.MaskOf(8, 1),
		Pairs: []cfgproto.Pair{{Element: 1, Spec: cfgproto.RouterSpec(1, 5)}},
	}, 0)
	for o := 0; o < 3; o++ {
		for sl := 0; sl < 8; sl++ {
			if r.Table().Input(o, sl) != slots.NoInput {
				t.Fatal("foreign or out-of-range packet modified the table")
			}
		}
	}
}

// TestConfigBroadcastChain: on a chain of three routers under one module
// every router decodes the same packet, each at its rotated slot, and the
// effect lands two cycles per tree hop after the root's: a spec word on
// the root wire during cycle V updates the table at depth d in the Eval
// of cycle V+1+2d.
func TestConfigBroadcastChain(t *testing.T) {
	s := sim.New()
	r1 := newRouter(t, s, 2, 2)
	r2, err := New(s, "R2", 2, 2, 2, params())
	if err != nil {
		t.Fatal(err)
	}
	r3, err := New(s, "R3", 3, 2, 2, params())
	if err != nil {
		t.Fatal(err)
	}
	mod := configtree.New(s, "cfg", configtree.DefaultParams())
	r3.ConnectConfigIn(r2.ConnectConfigIn(r1.ConnectConfigIn(mod.ForwardWire())))

	// One packet configuring all three routers at rotated slots.
	pkt := cfgproto.PathSetup{
		Mask: slots.MaskOf(8, 5),
		Pairs: []cfgproto.Pair{
			{Element: 3, Spec: cfgproto.RouterSpec(0, 1)},
			{Element: 2, Spec: cfgproto.RouterSpec(1, 0)},
			{Element: 1, Spec: cfgproto.RouterSpec(0, 0)},
		},
	}
	words, _ := pkt.Words()
	// seen[k] is the cycle whose probe first saw word k on the root
	// wire; set[r] the one whose probe first saw router r's entry.
	var seen []uint64
	set := map[*Router]uint64{}
	entries := map[*Router][2]int{r3: {1, 5}, r2: {0, 4}, r1: {0, 3}}
	s.AddProbe(func(c uint64) {
		if mod.RootWire().Get().Valid {
			seen = append(seen, c)
		}
		for r, e := range entries {
			if _, ok := set[r]; !ok && r.Table().Input(e[0], e[1]) != slots.NoInput {
				set[r] = c
			}
		}
	})
	submit(t, s, mod, pkt, 3)
	if r3.Table().Input(1, 5) != 0 {
		t.Fatal("r3 not configured")
	}
	if r2.Table().Input(0, 4) != 1 {
		t.Fatal("r2 not configured at rotated slot")
	}
	if r1.Table().Input(0, 3) != 0 {
		t.Fatal("r1 not configured at doubly rotated slot")
	}
	if len(seen) != len(words) {
		t.Fatalf("root wire carried %d words, want %d", len(seen), len(words))
	}
	for pair, r := range []*Router{r3, r2, r1} {
		depth := uint64(r.ID() - 1)
		spec := seen[len(words)-2*len(pkt.Pairs)+2*pair+1]
		if got, want := set[r], spec+2+2*depth; got != want {
			t.Errorf("%s (depth %d): entry seen at cycle %d, want %d (spec word at %d)", r.Name(), depth, got, want, spec)
		}
	}
}

// TestUnconnectedInputsReadIdle: inputs left unconnected behave as idle
// links.
func TestUnconnectedInputsReadIdle(t *testing.T) {
	s := sim.New()
	r := newRouter(t, s, 2, 2)
	if err := r.Table().Set(0, slots.MaskOf(8, 0, 1, 2, 3, 4, 5, 6, 7), 1); err != nil {
		t.Fatal(err)
	}
	s.AddProbe(func(uint64) {
		if r.OutputWire(0).Get().Valid {
			t.Fatal("unconnected input produced data")
		}
	})
	s.Run(20)
}

func TestRouterAccessors(t *testing.T) {
	s := sim.New()
	r := newRouter(t, s, 2, 2)
	if r.Name() != "R" || r.ID() != 1 {
		t.Fatal("accessors wrong")
	}
}

// TestGoldenModelEquivalence verifies the pipelined router against a
// plain functional reference: for random slot tables and random input
// streams, the router's outputs must equal the reference's prediction
// (table lookup on the output slot, input delayed by two cycles) on every
// cycle. This is the classic golden-model check an RTL implementation
// would face. Between cycles random entries are rewritten without waking
// the router, as a slot-table upset (fault.SlotTableFlip) does, so the
// model indexes the table as it stood at the router's Eval. The multicast
// row also has outputs 0 and 2 select one input in one slot, which no
// rewrite touches, and requires that both outputs carried its words.
func TestGoldenModelEquivalence(t *testing.T) {
	for _, multicast := range []bool{false, true} {
		name := "unicast"
		if multicast {
			name = "multicast"
		}
		t.Run(name, func(t *testing.T) {
			f := func(seed uint64) bool { return goldenModelRun(t, seed, multicast) }
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// goldenModelRun runs one seeded router against the reference model.
func goldenModelRun(t *testing.T, seed uint64, multicast bool) bool {
	rng := sim.NewRNG(seed)
	s := sim.New()
	const numIn, numOut, wheel = 3, 3, 8
	r, err := New(s, "R", 1, numIn, numOut, params())
	if err != nil {
		t.Fatal(err)
	}
	set := func(o, sl, in int) {
		if err := r.Table().Set(o, slots.MaskOf(wheel, sl), in); err != nil {
			t.Fatal(err)
		}
	}
	// Random table.
	for o := 0; o < numOut; o++ {
		for sl := 0; sl < wheel; sl++ {
			if in := rng.Intn(numIn + 1); in < numIn {
				set(o, sl, in)
			}
		}
	}
	mcSlot := -1
	if multicast {
		mcSlot = rng.Intn(wheel)
		in := rng.Intn(numIn)
		set(0, mcSlot, in)
		set(2, mcSlot, in)
	}
	// tables[c] is the table the router's Eval of cycle c indexes.
	tables := []*slots.RouterTable{r.Table().Clone()}
	// Random input streams, recorded per cycle.
	wires := make([]*sim.Reg[phit.Flit], numIn)
	history := make([][]phit.Flit, numIn) // history[i][c] = wire value during cycle c
	for i := range wires {
		wires[i] = sim.NewReg(s, phit.Idle())
		r.ConnectInput(i, wires[i])
		history[i] = []phit.Flit{{}} // cycle 0: initial idle
	}
	s.Add(&sim.Func{Label: "stim", OnEval: func(c uint64) {
		for i := range wires {
			var fl phit.Flit
			if rng.Intn(2) == 0 {
				fl = phit.Flit{Valid: true, Data: phit.Word(rng.Uint64())}
			}
			wires[i].Set(fl)
			history[i] = append(history[i], fl)
		}
	}})
	ok := true
	fanOut := 0
	s.AddProbe(func(c uint64) {
		// Output during cycle c reflects input during cycle c-2 under
		// the entry of slot(c) of the table Eval c-1 read.
		if c >= 2 {
			slot := slots.SlotOfCycle(c, 2, wheel)
			for o := 0; o < numOut; o++ {
				want := phit.Idle()
				if in := tables[c-1].Input(o, slot); in != slots.NoInput {
					want = history[in][c-2]
				}
				if got := r.OutputWire(o).Get(); got != want {
					ok = false
				}
			}
			if f := r.OutputWire(0).Get(); slot == mcSlot && f.Valid && r.OutputWire(2).Get() == f {
				fanOut++
			}
		}
		// Rewrite a random entry behind the router's back.
		if o, sl, in := rng.Intn(numOut), rng.Intn(wheel), rng.Intn(numIn+1)-1; sl != mcSlot {
			set(o, sl, in)
		}
		tables = append(tables, r.Table().Clone())
	})
	// 256 cycles hold the multicast slot 32 times: the chance that its
	// input is idle in every one of them, so no fan-out is seen, is
	// 2^-32 (at 64 cycles it was 2^-8, and the row failed about one run
	// in six).
	s.Run(256)
	return ok && (!multicast || fanOut > 0)
}

// TestOutputGoesIdleAtSlotBoundary: an output driven in slot s and
// unprogrammed in s+1 carries its input's word for exactly the two cycles
// of s and is idle from the first cycle of s+1, when the output that slot
// drives takes over — also with the input word held constant, so no wire
// change marks the boundary.
func TestOutputGoesIdleAtSlotBoundary(t *testing.T) {
	s := sim.New()
	r := newRouter(t, s, 2, 2)
	r.ConnectInput(0, sim.NewReg(s, phit.Flit{Valid: true, Data: 0x5A}))
	if err := r.Table().Set(1, slots.MaskOf(8, 3), 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Table().Set(0, slots.MaskOf(8, 4), 0); err != nil {
		t.Fatal(err)
	}
	s.AddProbe(func(c uint64) {
		if c < 2 {
			return
		}
		slot := slots.SlotOfCycle(c, 2, 8)
		if got, want := r.OutputWire(1).Get().Valid, slot == 3; got != want {
			t.Errorf("cycle %d (slot %d): output 1 valid = %v, want %v", c, slot, got, want)
		}
		if got, want := r.OutputWire(0).Get().Valid, slot == 4; got != want {
			t.Errorf("cycle %d (slot %d): output 0 valid = %v, want %v", c, slot, got, want)
		}
	})
	s.Run(32)
	if got := r.OutputBusy(1); got != 4 {
		t.Fatalf("output 1 carried %d words over two wheel turns, want 4", got)
	}
}

// TestNewMakesOnlyWireRegisters pins that a router puts only its wires in
// the kernel: one register per output. Its buffering stages are read by
// nobody else, so they are plain fields and cost the kernel no
// write-list entry or latch, and its configuration reaches it through the
// region's module, not through per-hop registers.
func TestNewMakesOnlyWireRegisters(t *testing.T) {
	s := sim.New()
	const numIn, numOut = 3, 4
	newRouter(t, s, numIn, numOut)
	if got, want := s.String(), fmt.Sprintf("regs=%d}", numOut); !strings.HasSuffix(got, want) {
		t.Fatalf("after New: %s, want %s", got, want)
	}
}

// ladderRouter is the benchmark ladder's standalone 5x5 router. Loaded:
// every output reserved in every slot and every input wire holding a
// constant valid word that nobody drives; idle: empty table, idle inputs.
func ladderRouter(t *testing.T, loaded bool) (*sim.Simulator, *Router) {
	t.Helper()
	s := sim.New()
	r, err := New(s, "ladder-router", 1, 5, 5, Params{Wheel: 16, SlotWords: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := phit.Idle()
	if loaded {
		in = phit.Flit{Valid: true, Data: 0xDAE117E}
		full := slots.NewMask(16)
		for sl := 0; sl < 16; sl++ {
			full = full.With(sl)
		}
		for out := 0; out < 5; out++ {
			if err := r.Table().Set(out, full, (out+1)%5); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		r.ConnectInput(i, sim.NewReg(s, in))
	}
	return s, r
}

// TestLoadedRouterNeverSleeps: a router whose inputs hold a constant
// valid flit is never woken by a wire change — it must stay awake on its
// own and forward exactly as many words as before sleeping existed
// (every output from the second cycle on: 5 × 999). The idle router is
// evaluated once, then sleeps.
func TestLoadedRouterNeverSleeps(t *testing.T) {
	const cycles = 1000
	s, r := ladderRouter(t, true)
	s.Run(cycles)
	if evaluated, _ := s.Evaluations(); evaluated != cycles {
		t.Fatalf("loaded router evaluated %d of %d cycles", evaluated, cycles)
	}
	if got := r.Forwarded(); got != 5*(cycles-1) {
		t.Fatalf("Forwarded() = %d, want %d", got, 5*(cycles-1))
	}
	s, r = ladderRouter(t, false)
	s.Run(cycles)
	if evaluated, _ := s.Evaluations(); evaluated != 1 || r.Forwarded() != 0 {
		t.Fatalf("idle router evaluated %d times and forwarded %d words, want 1 and 0", evaluated, r.Forwarded())
	}
}
