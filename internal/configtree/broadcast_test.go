package configtree

import (
	"testing"

	"daelite/internal/cfgproto"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/slots"
)

// chain attaches n test elements in a chain below m's root (element i at
// depth i, ID i+1) and returns them.
func chain(s *sim.Simulator, m *Module, n int) []*elem {
	els := make([]*elem, n)
	port := m.ForwardWire()
	for i := range els {
		els[i] = &elem{s: s, regs: map[uint8]uint8{}, answer: true}
		nd := port.Attach(i+1, 8, i%2 == 1, els[i])
		if i == 0 {
			m.ConnectResponse(nd)
		}
		port = nd
	}
	return els
}

// rootWords records, per word on the root wire, the cycle it was there.
func rootWords(s *sim.Simulator, m *Module) *[]uint64 {
	var at []uint64
	s.AddProbe(func(c uint64) {
		if m.RootWire().Get().Valid {
			at = append(at, c)
		}
	})
	return &at
}

// TestEffectsLandAtTheirDepth: the module decodes the root stream once
// and each element receives its effect in the Eval of cycle V+1+2d, V
// being the cycle the completing word was on the root wire and d the
// element's depth as wired — exactly when the element's own decoder,
// behind its input stage and two register stages per hop, would have
// applied it. Masks are rotated by the pair's index, and specs are read
// in each element's layout.
func TestEffectsLandAtTheirDepth(t *testing.T) {
	s := sim.New()
	m := New(s, "cfg", DefaultParams())
	els := chain(s, m, 4)
	at := rootWords(s, m)
	mask := slots.MaskOf(8, 1, 6)
	pkt := cfgproto.PathSetup{Mask: mask, Pairs: []cfgproto.Pair{
		{Element: 4, Spec: cfgproto.NISpec(false, true, 2)},
		{Element: 9, Spec: cfgproto.RouterSpec(0, 1)}, // no such element
		{Element: 2, Spec: cfgproto.NISpec(true, true, 1)},
		{Element: 1, Spec: cfgproto.RouterSpec(2, 3)},
	}}
	words, err := pkt.Words()
	if err != nil {
		t.Fatal(err)
	}
	wr, err := cfgproto.WriteRegPacket([]cfgproto.RegWrite{{Element: 3, Reg: 0x12, Value: 0x34}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SubmitPacket(words); err != nil {
		t.Fatal(err)
	}
	if err := m.SubmitPacket(wr); err != nil {
		t.Fatal(err)
	}
	s.Run(60)
	if len(*at) != len(words)+len(wr) {
		t.Fatalf("root wire carried %d words, want %d", len(*at), len(words)+len(wr))
	}
	first := len(words) - 2*len(pkt.Pairs) // index of the first pair's ID word
	for k, pr := range pkt.Pairs {
		if pr.Element > len(els) {
			continue
		}
		d := pr.Element - 1
		got := els[d].applied
		if len(got) != 1 {
			t.Fatalf("element %d got %d effects, want 1", pr.Element, len(got))
		}
		// chain makes the odd depths NIs, and the packet addresses each
		// element in its own layout.
		want := applied{cycle: (*at)[first+2*k+1] + 1 + 2*uint64(d), mask: mask.RotateDown(k), spec: pr.Spec}
		if got[0] != want {
			t.Errorf("element %d (depth %d): got %+v, want %+v", pr.Element, d, got[0], want)
		}
	}
	w := els[2].applied
	if want := (applied{cycle: (*at)[len(*at)-1] + 1 + 2*2, reg: 0x12, value: 0x34}); len(w) != 1 || w[0] != want {
		t.Fatalf("element 3's register write: got %+v, want [%+v]", w, want)
	}
}

// TestModuleStaysAwakeWhileTheTreeDrains: the module sleeps in the Eval
// in which the last word would have left the deepest element's input
// stage (V+2D+2 for a tree of depth D), not earlier: fast-forward and the
// kernel's activity see the tree busy for exactly as long as a tree of
// per-element decoders would be.
func TestModuleStaysAwakeWhileTheTreeDrains(t *testing.T) {
	const depth = 5
	s := sim.New()
	m := New(s, "cfg", DefaultParams())
	chain(s, m, depth+1)
	at := rootWords(s, m)
	if err := m.SubmitPacket([]phit.ConfigWord{cfgproto.Header(cfgproto.OpNop, 0)}); err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 60; i++ {
		before, _ := s.Evaluations()
		c := s.Cycle()
		s.Step()
		if after, _ := s.Evaluations(); after > before {
			last = c
		}
	}
	if len(*at) != 1 {
		t.Fatalf("root wire carried %d words, want 1", len(*at))
	}
	if want := (*at)[0] + 2*depth + 2; last != want {
		t.Fatalf("module last evaluated at cycle %d, want %d (word on the root wire at %d)", last, want, (*at)[0])
	}
}

// TestRootWireCorruptionIsBroadcast: what a fault injector leaves on the
// root wire after the module drove it is what every element decodes.
func TestRootWireCorruptionIsBroadcast(t *testing.T) {
	s := sim.New()
	m := New(s, "cfg", DefaultParams())
	els := chain(s, m, 2)
	wr, err := cfgproto.WriteRegPacket([]cfgproto.RegWrite{{Element: 2, Reg: 0x05, Value: 0x40}})
	if err != nil {
		t.Fatal(err)
	}
	s.AddOrdered(&sim.Func{Label: "flip", OnEval: func(uint64) {
		// The packet's last word is the value: flip its low bit.
		if w := m.RootWire().Peek(); w.Valid && w.Bits == 0x40 {
			w.Bits ^= 1
			m.RootWire().Set(w)
		}
	}})
	if err := m.SubmitPacket(wr); err != nil {
		t.Fatal(err)
	}
	s.Run(30)
	if got := els[1].applied; len(got) != 1 || got[0].reg != 0x05 || got[0].value != 0x41 {
		t.Fatalf("element 2 got %+v, want the flipped value 0x41 in register 0x05", got)
	}
	if len(els[0].applied) != 0 {
		t.Fatalf("element 1 got %+v, want nothing", els[0].applied)
	}
}

// TestRootResponseTiming: a read of the element at depth d answers in the
// Eval of V+1+2d and its response reaches the module, through two stages
// per hop back, in the Eval of V+3+4d; RootResponse shows it on the root
// reverse wire for exactly that cycle.
func TestRootResponseTiming(t *testing.T) {
	for d := 0; d < 3; d++ {
		s := sim.New()
		m := New(s, "cfg", DefaultParams())
		els := chain(s, m, 3)
		els[d].regs[0x21] = 0x5A
		at := rootWords(s, m)
		var seen []uint64
		s.AddProbe(func(c uint64) {
			if r := m.RootResponse(); r.Valid {
				if r.Bits != 0x5A {
					t.Errorf("depth %d: response %#x, want 0x5a", d, r.Bits)
				}
				seen = append(seen, c)
			}
		})
		rd, err := cfgproto.ReadRegPacket(d+1, 0x21)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SubmitPacket(rd); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(func() bool { return !m.ReadOutstanding() }, 100)
		s.Run(10)
		v, ok := m.ReadValue()
		if !ok || v != 0x5A {
			t.Fatalf("depth %d: read %#x %v", d, v, ok)
		}
		want := (*at)[len(*at)-1] + 3 + 4*uint64(d)
		if len(seen) != 1 || seen[0] != want {
			t.Fatalf("depth %d: response on the root reverse wire at %v, want [%d]", d, seen, want)
		}
	}
}

// TestZeroCooldownAudited runs zero-cool-down packets under the kernel's
// sleep-proof audit, on a bare module and on one with a tree: a module
// that slept in the Eval that drove a packet's last word would leave
// that word on the root wire, and its next Eval — one the kernel would
// have skipped — would drive the idle word the tree needs.
func TestZeroCooldownAudited(t *testing.T) {
	for _, elems := range []int{0, 3} {
		s := sim.New()
		s.Audit(func(msg string) { t.Fatalf("%d elements: %s", elems, msg) })
		m := New(s, "cfg", Params{Cooldown: 0, QueueDepth: 64})
		chain(s, m, elems)
		got := collectWire(s, m.RootWire())
		packets := [][]phit.ConfigWord{
			{cfgproto.Header(cfgproto.OpNop, 0)},
			{cfgproto.Header(cfgproto.OpNop, 0), phit.NewConfigWord(0x11), phit.NewConfigWord(0x22)},
		}
		n := 0
		for _, p := range packets {
			if err := m.SubmitPacket(p); err != nil {
				t.Fatal(err)
			}
			s.Run(20)
			n += len(p)
		}
		if len(*got) != n {
			t.Fatalf("%d elements: the root wire carried %d valid words, want %d", elems, len(*got), n)
		}
	}
}
