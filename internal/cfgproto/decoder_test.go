package cfgproto

import (
	"testing"

	"daelite/internal/phit"
	"daelite/internal/slots"
)

// recordSink captures decoded effects.
type recordSink struct {
	applies []struct {
		Mask slots.Mask
		Spec PortSpec
	}
	writes []struct{ Reg, Val uint8 }
	regs   map[uint8]uint8
}

func (r *recordSink) ApplySlots(mask slots.Mask, spec PortSpec) {
	r.applies = append(r.applies, struct {
		Mask slots.Mask
		Spec PortSpec
	}{mask, spec})
}

func (r *recordSink) WriteReg(reg, value uint8) {
	r.writes = append(r.writes, struct{ Reg, Val uint8 }{reg, value})
	if r.regs == nil {
		r.regs = map[uint8]uint8{}
	}
	r.regs[reg] = value
}

func (r *recordSink) ReadReg(reg uint8) (uint8, bool) {
	v, ok := r.regs[reg]
	return v, ok
}

// elemDec is a single-member decoder feeding its element's sink: the
// hardware's per-element decoder.
type elemDec struct {
	*Decoder
	sink Sink
}

func newElemDec(id, wheel int, forNI bool, sink Sink) *elemDec {
	d := NewDecoder(wheel)
	d.Add(id, forNI)
	return &elemDec{d, sink}
}

// Feed feeds one word and applies its effect, returning a read's
// response.
func (e *elemDec) Feed(w phit.ConfigWord) phit.Response { return e.Decoder.Feed(w).Apply(e.sink) }

func feedAll(d *elemDec, words []phit.ConfigWord) []phit.Response {
	var resps []phit.Response
	for _, w := range words {
		if r := d.Feed(w); r.Valid {
			resps = append(resps, r)
		}
	}
	return resps
}

// TestFig6PathSetupExample replays the paper's Fig. 6 example through real
// decoders: path NI10 -> R10 -> R11 -> NI11, 8-slot wheel, destination
// slots {4,7}. Element IDs: NI10=10, R10=2, R11=3, NI11=11.
func TestFig6PathSetupExample(t *testing.T) {
	pkt := PathSetup{
		Mask: slots.MaskOf(8, 4, 7),
		Pairs: []Pair{
			{Element: 11, Spec: NISpec(false, true, 0)}, // NI-11: receive on channel 0
			{Element: 3, Spec: RouterSpec(1, 2)},        // R-11: input 1 -> output 2
			{Element: 2, Spec: RouterSpec(2, 1)},        // R-10: input 2 -> output 1
			{Element: 10, Spec: NISpec(true, true, 0)},  // NI-10: send channel 0
		},
	}
	words, err := pkt.Words()
	if err != nil {
		t.Fatal(err)
	}

	sinks := map[int]*recordSink{2: {}, 3: {}, 10: {}, 11: {}}
	decs := map[int]*elemDec{
		2:  newElemDec(2, 8, false, sinks[2]),
		3:  newElemDec(3, 8, false, sinks[3]),
		10: newElemDec(10, 8, true, sinks[10]),
		11: newElemDec(11, 8, true, sinks[11]),
	}
	for _, d := range decs {
		if resps := feedAll(d, words); len(resps) != 0 {
			t.Fatalf("path setup produced responses: %v", resps)
		}
		if d.Busy() {
			t.Fatal("decoder stuck mid-packet")
		}
	}

	check := func(id int, wantSlots []int, wantSpec PortSpec) {
		t.Helper()
		s := sinks[id]
		if len(s.applies) != 1 {
			t.Fatalf("element %d got %d applies, want 1", id, len(s.applies))
		}
		got := s.applies[0]
		gs := got.Mask.Slots()
		if len(gs) != len(wantSlots) {
			t.Fatalf("element %d slots %v, want %v", id, gs, wantSlots)
		}
		for i := range gs {
			if gs[i] != wantSlots[i] {
				t.Fatalf("element %d slots %v, want %v", id, gs, wantSlots)
			}
		}
		if got.Spec != wantSpec {
			t.Fatalf("element %d spec %+v, want %+v", id, got.Spec, wantSpec)
		}
	}
	// The paper's numbers: NI-11 {4,7}; R-11 {3,6}; R-10 {2,5}; and by
	// extension NI-10 injects at {1,4}.
	check(11, []int{4, 7}, NISpec(false, true, 0))
	check(3, []int{3, 6}, RouterSpec(1, 2))
	check(2, []int{2, 5}, RouterSpec(2, 1))
	check(10, []int{1, 4}, NISpec(true, true, 0))
}

func TestDecoderIgnoresOtherElements(t *testing.T) {
	pkt := PathSetup{
		Mask:  slots.MaskOf(8, 0),
		Pairs: []Pair{{Element: 5, Spec: RouterSpec(0, 1)}},
	}
	words, _ := pkt.Words()
	s := &recordSink{}
	d := newElemDec(6, 8, false, s)
	feedAll(d, words)
	if len(s.applies) != 0 {
		t.Fatal("decoder applied a pair addressed elsewhere")
	}
}

func TestDecoderMultiplePairsSameElement(t *testing.T) {
	// A multicast fork: the same router appears twice (two outputs fed
	// by one input). Masks must rotate between the two pairs.
	pkt := PathSetup{
		Mask: slots.MaskOf(8, 4),
		Pairs: []Pair{
			{Element: 9, Spec: RouterSpec(0, 1)},
			{Element: 9, Spec: RouterSpec(0, 2)},
		},
	}
	words, _ := pkt.Words()
	s := &recordSink{}
	feedAll(newElemDec(9, 8, false, s), words)
	if len(s.applies) != 2 {
		t.Fatalf("applies = %d, want 2", len(s.applies))
	}
	if got := s.applies[0].Mask.Slots(); got[0] != 4 {
		t.Fatalf("first apply slots %v", got)
	}
	if got := s.applies[1].Mask.Slots(); got[0] != 3 {
		t.Fatalf("second apply slots %v (rotation between pairs missing)", got)
	}
}

func TestDecoderWriteRead(t *testing.T) {
	writes := []RegWrite{
		{Element: 4, Reg: RegSelect(RegCredit, 2), Value: 63},
		{Element: 5, Reg: RegSelect(RegFlags, 2), Value: FlagOpen},
	}
	words, err := WriteRegPacket(writes)
	if err != nil {
		t.Fatal(err)
	}
	s4, s5 := &recordSink{}, &recordSink{}
	d4, d5 := newElemDec(4, 8, true, s4), newElemDec(5, 8, true, s5)
	feedAll(d4, words)
	feedAll(d5, words)
	if len(s4.writes) != 1 || s4.writes[0].Val != 63 {
		t.Fatalf("element 4 writes = %+v", s4.writes)
	}
	if len(s5.writes) != 1 || s5.writes[0].Val != FlagOpen {
		t.Fatalf("element 5 writes = %+v", s5.writes)
	}

	// Read back element 4's credit register.
	rd, err := ReadRegPacket(4, RegSelect(RegCredit, 2))
	if err != nil {
		t.Fatal(err)
	}
	resps := feedAll(d4, rd)
	if len(resps) != 1 || resps[0].Bits != 63 {
		t.Fatalf("read responses = %v", resps)
	}
	// The other element must stay silent.
	if resps := feedAll(d5, rd); len(resps) != 0 {
		t.Fatalf("unaddressed element responded: %v", resps)
	}
}

func TestDecoderReadUnknownRegSilent(t *testing.T) {
	rd, _ := ReadRegPacket(4, RegSelect(RegDelivered, 9))
	s := &recordSink{} // empty regs map -> ok=false
	if resps := feedAll(newElemDec(4, 8, true, s), rd); len(resps) != 0 {
		t.Fatalf("unknown register produced response: %v", resps)
	}
}

func TestDecoderIdleCyclesStall(t *testing.T) {
	pkt := PathSetup{
		Mask:  slots.MaskOf(8, 1),
		Pairs: []Pair{{Element: 7, Spec: RouterSpec(0, 1)}},
	}
	words, _ := pkt.Words()
	s := &recordSink{}
	d := newElemDec(7, 8, false, s)
	for _, w := range words {
		d.Feed(phit.ConfigWord{}) // interleave idle cycles
		d.Feed(w)
	}
	if len(s.applies) != 1 {
		t.Fatalf("idle interleave broke decoding: %d applies", len(s.applies))
	}
}

func TestDecoderNopAndBackToBackPackets(t *testing.T) {
	s := &recordSink{}
	d := newElemDec(1, 8, false, s)
	var stream []phit.ConfigWord
	stream = append(stream, Header(OpNop, 0))
	p1, _ := (PathSetup{Mask: slots.MaskOf(8, 2), Pairs: []Pair{{Element: 1, Spec: RouterSpec(0, 1)}}}).Words()
	p2, _ := (PathSetup{Mask: slots.MaskOf(8, 5), Pairs: []Pair{{Element: 1, Spec: RouterSpec(2, 0)}}}).Words()
	stream = append(stream, p1...)
	stream = append(stream, p2...)
	feedAll(d, stream)
	if len(s.applies) != 2 {
		t.Fatalf("applies = %d, want 2", len(s.applies))
	}
	if s.applies[0].Spec.Out != 1 || s.applies[1].Spec.Out != 0 {
		t.Fatalf("packet contents confused: %+v", s.applies)
	}
}

func TestDecoderBadIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newElemDec(MaxElements, 8, false, &recordSink{})
}

func TestDecoderTeardownSpec(t *testing.T) {
	pkt := PathSetup{
		Mask:  slots.MaskOf(8, 3),
		Pairs: []Pair{{Element: 2, Spec: RouterSpec(slots.NoInput, 4)}},
	}
	words, _ := pkt.Words()
	s := &recordSink{}
	feedAll(newElemDec(2, 8, false, s), words)
	if len(s.applies) != 1 || s.applies[0].Spec.In != slots.NoInput || s.applies[0].Spec.Out != 4 {
		t.Fatalf("teardown spec = %+v", s.applies)
	}
}
