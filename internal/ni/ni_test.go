package ni

import (
	"strings"
	"testing"

	"daelite/internal/cfgproto"
	"daelite/internal/configtree"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/slots"
)

func params() Params {
	return Params{Wheel: 8, SlotWords: 2, NumChannels: 4, SendQueueDepth: 8, RecvQueueDepth: 16}
}

// pair wires two NIs directly together (a single-link "network"): A's
// output is B's input and vice versa. A word injected at slot s arrives
// in the peer's receive table slot s+1.
func pair(t *testing.T, p Params) (*sim.Simulator, *NI, *NI) {
	t.Helper()
	s := sim.New()
	a, err := New(s, "A", 1, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(s, "B", 2, p)
	if err != nil {
		t.Fatal(err)
	}
	a.ConnectInput(b.OutputWire())
	b.ConnectInput(a.OutputWire())
	return s, a, b
}

// arm configures a bidirectional channel 0 between a and b. A hop is two
// cycles, so the receive-table slot trails the injection slot by
// 2/SlotWords positions — one with daelite's 2-word slots (the paper's
// design point, where the config protocol's rotate-by-one law holds), two
// with 1-word slots.
func arm(t *testing.T, a, b *NI, txA, txB slots.Mask, credit int, multicast bool) {
	t.Helper()
	armChannel(t, a, b, 0, txA, txB, credit, multicast)
}

// armChannel is arm for channel ch.
func armChannel(t *testing.T, a, b *NI, ch int, txA, txB slots.Mask, credit int, multicast bool) {
	t.Helper()
	rot := 2 / a.params.SlotWords
	if err := a.Table().SetSend(txA, ch); err != nil {
		t.Fatal(err)
	}
	if err := b.Table().SetReceive(txA.RotateUp(rot), ch); err != nil {
		t.Fatal(err)
	}
	if err := b.Table().SetSend(txB, ch); err != nil {
		t.Fatal(err)
	}
	if err := a.Table().SetReceive(txB.RotateUp(rot), ch); err != nil {
		t.Fatal(err)
	}
	flags := cfgproto.FlagOpen
	if multicast {
		flags |= cfgproto.FlagMulticast
	}
	as := (*niSink)(a)
	bs := (*niSink)(b)
	as.WriteReg(cfgproto.RegSelect(cfgproto.RegFlags, ch), flags)
	bs.WriteReg(cfgproto.RegSelect(cfgproto.RegFlags, ch), flags)
	as.WriteReg(cfgproto.RegSelect(cfgproto.RegCredit, ch), uint8(credit))
	bs.WriteReg(cfgproto.RegSelect(cfgproto.RegCredit, ch), uint8(credit))
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Wheel: 0, SlotWords: 2, NumChannels: 4, SendQueueDepth: 8, RecvQueueDepth: 16},
		{Wheel: 8, SlotWords: 0, NumChannels: 4, SendQueueDepth: 8, RecvQueueDepth: 16},
		{Wheel: 8, SlotWords: 2, NumChannels: 0, SendQueueDepth: 8, RecvQueueDepth: 16},
		{Wheel: 8, SlotWords: 2, NumChannels: 99, SendQueueDepth: 8, RecvQueueDepth: 16},
		{Wheel: 8, SlotWords: 2, NumChannels: 4, SendQueueDepth: 0, RecvQueueDepth: 16},
		{Wheel: 8, SlotWords: 2, NumChannels: 4, SendQueueDepth: 8, RecvQueueDepth: 64},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	if err := params().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSendRequiresOpenChannel(t *testing.T) {
	s, a, _ := pair(t, params())
	if a.Send(0, 1) {
		t.Fatal("closed channel accepted a word")
	}
	(*niSink)(a).WriteReg(cfgproto.RegSelect(cfgproto.RegFlags, 0), cfgproto.FlagOpen)
	if !a.Send(0, 1) {
		t.Fatal("open channel rejected a word")
	}
	_ = s
}

func TestSendQueueBound(t *testing.T) {
	p := params()
	_, a, _ := pair(t, p)
	(*niSink)(a).WriteReg(cfgproto.RegSelect(cfgproto.RegFlags, 0), cfgproto.FlagOpen)
	for i := 0; i < p.SendQueueDepth; i++ {
		if !a.Send(0, phit.Word(i)) {
			t.Fatalf("send %d rejected below depth", i)
		}
	}
	if a.Send(0, 99) {
		t.Fatal("send accepted beyond queue depth")
	}
	if a.CanSend(0) {
		t.Fatal("CanSend true at full queue")
	}
	if got := a.SendQueueLen(0); got != p.SendQueueDepth {
		t.Fatalf("queue len = %d", got)
	}
}

func TestEndToEndDeliveryAndOrder(t *testing.T) {
	s, a, b := pair(t, params())
	arm(t, a, b, slots.MaskOf(8, 1, 5), slots.MaskOf(8, 3), 16, false)
	for i := 0; i < 6; i++ {
		if !a.Send(0, phit.Word(0x40+i)) {
			t.Fatalf("send %d rejected", i)
		}
	}
	s.Run(100)
	if got := b.RecvLen(0); got != 6 {
		t.Fatalf("delivered %d of 6", got)
	}
	for i := 0; i < 6; i++ {
		d, ok := b.Recv(0)
		if !ok || d.Word != phit.Word(0x40+i) {
			t.Fatalf("word %d = %v %v", i, d.Word, ok)
		}
		if d.Tag.Seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", d.Tag.Seq, i)
		}
	}
	if _, ok := b.Recv(0); ok {
		t.Fatal("phantom delivery")
	}
}

// TestSlotAlignment pins the +1 law on a single link: injection at slot s
// is accepted by the peer's receive entry at slot s+1 and only there.
func TestSlotAlignment(t *testing.T) {
	p := params()
	s := sim.New()
	a, _ := New(s, "A", 1, p)
	b, _ := New(s, "B", 2, p)
	b.ConnectInput(a.OutputWire())
	_ = a.Table().SetSend(slots.MaskOf(8, 2), 0)
	// Deliberately misalign the receive entry: nothing may arrive.
	_ = b.Table().SetReceive(slots.MaskOf(8, 2), 0)
	(*niSink)(a).WriteReg(cfgproto.RegSelect(cfgproto.RegFlags, 0), cfgproto.FlagOpen)
	(*niSink)(a).WriteReg(cfgproto.RegSelect(cfgproto.RegCredit, 0), 8)
	(*niSink)(b).WriteReg(cfgproto.RegSelect(cfgproto.RegFlags, 0), cfgproto.FlagOpen)
	a.Send(0, 0xEE)
	s.Run(64)
	if b.RecvLen(0) != 0 {
		t.Fatal("misaligned receive entry accepted data")
	}
	// Fix the alignment: slot 3 = injection slot 2 + 1.
	_ = b.Table().SetReceive(slots.MaskOf(8, 2), slots.NoChannel)
	_ = b.Table().SetReceive(slots.MaskOf(8, 3), 0)
	a.Send(0, 0xEF)
	s.Run(64)
	if b.RecvLen(0) != 1 {
		t.Fatal("aligned receive entry missed data")
	}
}

func TestCreditPiggybackRoundTrip(t *testing.T) {
	p := params()
	p.RecvQueueDepth = 4
	s, a, b := pair(t, p)
	arm(t, a, b, slots.MaskOf(8, 1), slots.MaskOf(8, 4), 4, false)
	// Fill the destination queue: credits exhausted at 4 in flight.
	for i := 0; i < 8; i++ {
		a.Send(0, phit.Word(i))
	}
	s.Run(200)
	if got := b.RecvLen(0); got != 4 {
		t.Fatalf("delivered %d, want 4 (credit bound)", got)
	}
	if a.Credit(0) != 0 {
		t.Fatalf("source credit = %d, want 0", a.Credit(0))
	}
	// Consume two words; two credits flow back on B's TX slots; two
	// more words arrive.
	b.Recv(0)
	b.Recv(0)
	s.Run(200)
	if got := b.RecvLen(0); got != 4 {
		t.Fatalf("after credit return: delivered %d in queue, want 4", got)
	}
	injected, _ := a.Stats()
	if injected != 6 {
		t.Fatalf("injected = %d, want 6", injected)
	}
}

func TestMulticastFlagBypassesCredits(t *testing.T) {
	p := params()
	s, a, b := pair(t, p)
	// Credit 0, multicast flag set: words must still flow.
	arm(t, a, b, slots.MaskOf(8, 2), slots.MaskOf(8, 6), 0, true)
	for i := 0; i < 5; i++ {
		a.Send(0, phit.Word(i))
	}
	s.Run(120)
	if got := b.RecvLen(0); got != 5 {
		t.Fatalf("multicast delivered %d of 5", got)
	}
}

func TestRecvQueueOverflowDropsOnlyWithoutFlowControl(t *testing.T) {
	p := params()
	p.RecvQueueDepth = 2
	s, a, b := pair(t, p)
	arm(t, a, b, slots.MaskOf(8, 1), slots.MaskOf(8, 5), 0, true) // multicast: no credits
	for i := 0; i < 6; i++ {
		a.Send(0, phit.Word(i))
	}
	s.Run(200)
	// Without flow control and a consumer, the queue caps at 2 and the
	// surplus is dropped — the behaviour the paper warns about for
	// multicast destinations that cannot keep up.
	if got := b.RecvLen(0); got != 2 {
		t.Fatalf("queue holds %d, want 2", got)
	}
	injected, _ := a.Stats()
	if injected != 6 {
		t.Fatalf("source stalled: injected %d", injected)
	}
}

func TestConfigReadbackRegisters(t *testing.T) {
	_, a, _ := pair(t, params())
	sink := (*niSink)(a)
	sink.WriteReg(cfgproto.RegSelect(cfgproto.RegFlags, 1), cfgproto.FlagOpen)
	sink.WriteReg(cfgproto.RegSelect(cfgproto.RegCredit, 1), 13)
	sink.WriteReg(cfgproto.RegSelect(cfgproto.RegDelivered, 1), 5)
	if v, ok := sink.ReadReg(cfgproto.RegSelect(cfgproto.RegFlags, 1)); !ok || v != cfgproto.FlagOpen {
		t.Fatalf("flags readback = %d %v", v, ok)
	}
	if v, ok := sink.ReadReg(cfgproto.RegSelect(cfgproto.RegCredit, 1)); !ok || v != 13 {
		t.Fatalf("credit readback = %d %v", v, ok)
	}
	if v, ok := sink.ReadReg(cfgproto.RegSelect(cfgproto.RegDelivered, 1)); !ok || v != 5 {
		t.Fatalf("delivered readback = %d %v", v, ok)
	}
	// Out-of-range channel: silent.
	if _, ok := sink.ReadReg(cfgproto.RegSelect(cfgproto.RegCredit, 31)); ok {
		t.Fatal("out-of-range channel answered")
	}
}

// busRecorder captures deserialized bus configuration words.
type busRecorder struct{ words []uint32 }

func (b *busRecorder) ConfigWrite(v uint32) { b.words = append(b.words, v) }

func TestBusConfigDeserialization(t *testing.T) {
	_, a, _ := pair(t, params())
	rec := &busRecorder{}
	a.SetBusConfigPort(rec)
	sink := (*niSink)(a)
	// Four 7-bit writes assemble one 28-bit word; position 3 flushes.
	want := uint32(0x0ABCDEF)
	for i := 0; i < 4; i++ {
		shift := uint(7 * (3 - i))
		sink.WriteReg(cfgproto.RegSelect(cfgproto.RegBus, i), uint8(want>>shift&0x7F))
	}
	if len(rec.words) != 1 || rec.words[0] != want {
		t.Fatalf("bus config = %#x, want %#x", rec.words, want)
	}
}

func TestApplySlotsIgnoresMalformedSpecs(t *testing.T) {
	_, a, _ := pair(t, params())
	sink := (*niSink)(a)
	// Router-layout spec addressed to an NI: ignored.
	sink.ApplySlots(slots.MaskOf(8, 1), cfgproto.RouterSpec(1, 1))
	// Out-of-range channel: ignored.
	sink.ApplySlots(slots.MaskOf(8, 1), cfgproto.NISpec(true, true, 20))
	if !a.Table().OccupiedMask().Empty() {
		t.Fatal("malformed spec modified the table")
	}
}

// TestOneWordSlots exercises the paper's "could be decreased to a single
// word" option: with 1-word slots credits transfer 3 bits per slot and
// everything still flows with flow control intact.
func TestOneWordSlots(t *testing.T) {
	p := params()
	p.SlotWords = 1
	p.RecvQueueDepth = 6
	s, a, b := pair(t, p)
	arm(t, a, b, slots.MaskOf(8, 1, 4), slots.MaskOf(8, 6), 6, false)
	sent := 0
	for sent < 6 {
		if a.Send(0, phit.Word(sent)) {
			sent++
		} else {
			s.Run(8)
		}
	}
	s.Run(100)
	if got := b.RecvLen(0); got != 6 {
		t.Fatalf("credit bound violated with 1-word slots: %d", got)
	}
	if a.Credit(0) != 0 {
		t.Fatalf("credit = %d, want 0", a.Credit(0))
	}
	// Drain and confirm the remaining words flow in order once credits
	// return (3 bits per 1-word slot).
	seen := 0
	for seen < 12 {
		if sent < 12 && a.Send(0, phit.Word(sent)) {
			sent++
		}
		d, ok := b.Recv(0)
		if ok {
			if d.Word != phit.Word(seen) {
				t.Fatalf("word %d = %v", seen, d.Word)
			}
			seen++
			continue
		}
		s.Run(20)
		if s.Cycle() > 5000 {
			t.Fatalf("stalled at %d of 12 (sent %d)", seen, sent)
		}
	}
}

func TestAccessors(t *testing.T) {
	_, a, _ := pair(t, params())
	if a.Name() != "A" || a.ID() != 1 {
		t.Fatal("accessors wrong")
	}
	if a.Flags(0) != 0 {
		t.Fatal("fresh flags not zero")
	}
}

func TestDroppedCounter(t *testing.T) {
	p := params()
	p.RecvQueueDepth = 2
	s, a, b := pair(t, p)
	arm(t, a, b, slots.MaskOf(8, 1), slots.MaskOf(8, 5), 0, true) // multicast: no credits
	for i := 0; i < 6; i++ {
		a.Send(0, phit.Word(i))
	}
	s.Run(200)
	if got := b.Dropped(); got != 4 {
		t.Fatalf("dropped = %d, want 4 (6 sent, 2-word queue, no consumer)", got)
	}
	// Flow-controlled channels never drop.
	s2, c, d := pair(t, params())
	arm(t, c, d, slots.MaskOf(8, 2), slots.MaskOf(8, 6), 16, false)
	for i := 0; i < 10; i++ {
		c.Send(0, phit.Word(i))
	}
	s2.Run(400)
	if d.Dropped() != 0 {
		t.Fatalf("flow-controlled channel dropped %d", d.Dropped())
	}
}

// ladderPair is the benchmark ladder's back-to-back NI pair under one
// configuration module, with channel 0 routed both ways (A sends in
// slots 0-3, B in 4-7) but not yet opened.
func ladderPair(t *testing.T) (*sim.Simulator, *NI, *NI, *configtree.Module) {
	t.Helper()
	s := sim.New()
	p := Params{Wheel: 8, SlotWords: 2, NumChannels: 4, SendQueueDepth: 16, RecvQueueDepth: 32}
	a, err := New(s, "ladder-ni-a", 1, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(s, "ladder-ni-b", 2, p)
	if err != nil {
		t.Fatal(err)
	}
	a.ConnectInput(b.OutputWire())
	b.ConnectInput(a.OutputWire())
	mod := configtree.New(s, "ladder-cfg", configtree.DefaultParams())
	a.ConnectConfigIn(mod.ForwardWire())
	b.ConnectConfigIn(mod.ForwardWire())
	mod.ConnectResponse(a.ResponseWire())
	txA, txB := slots.MaskOf(8, 0, 1, 2, 3), slots.MaskOf(8, 4, 5, 6, 7)
	for _, e := range []error{
		a.Table().SetSend(txA, 0), b.Table().SetReceive(txA.RotateUp(1), 0),
		b.Table().SetSend(txB, 0), a.Table().SetReceive(txB.RotateUp(1), 0),
	} {
		if e != nil {
			t.Fatal(e)
		}
	}
	return s, a, b, mod
}

// openLadderPair opens channel 0 on both NIs through the configuration
// tree and runs until both have seen it.
func openLadderPair(t *testing.T, s *sim.Simulator, a, b *NI, mod *configtree.Module) {
	t.Helper()
	words, err := cfgproto.WriteRegPacket([]cfgproto.RegWrite{
		{Element: 1, Reg: cfgproto.RegSelect(cfgproto.RegCredit, 0), Value: 32},
		{Element: 2, Reg: cfgproto.RegSelect(cfgproto.RegCredit, 0), Value: 32},
		{Element: 1, Reg: cfgproto.RegSelect(cfgproto.RegFlags, 0), Value: cfgproto.FlagOpen},
		{Element: 2, Reg: cfgproto.RegSelect(cfgproto.RegFlags, 0), Value: cfgproto.FlagOpen},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mod.SubmitPacket(words); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.RunUntil(func() bool { return a.Flags(0)&b.Flags(0)&cfgproto.FlagOpen != 0 }, 1000); !ok {
		t.Fatal("channel 0 never opened")
	}
}

// TestLadderPairDelivers: the ladder's NI rung. Idle, the pair and its
// configuration module are evaluated once each and then sleep; opened
// through the tree from that sleep and driven at line rate, the pair
// delivers exactly what it delivered before sleeping existed.
func TestLadderPairDelivers(t *testing.T) {
	s, a, b, mod := ladderPair(t)
	s.Run(100)
	if evaluated, offered := s.Evaluations(); evaluated != 3 || offered != 300 {
		t.Fatalf("idle pair: %d of %d evaluations, want 3 of 300", evaluated, offered)
	}
	openLadderPair(t, s, a, b, mod)
	s.Run(64)
	var seq uint32
	s.AddOrdered(&sim.Func{Label: "ladder-ip", OnEval: func(uint64) {
		if a.Send(0, phit.Word(seq)) {
			seq++
		}
		for {
			if _, ok := b.Recv(0); !ok {
				return
			}
		}
	}})
	s.Run(2000)
	if b.RxWords(0) != 997 || a.CreditStallCycles(0) != 0 || a.Dropped()+b.Dropped() != 0 {
		t.Fatalf("rx %d words, %d credit stalls, %d dropped; want 997, 0, 0",
			b.RxWords(0), a.CreditStallCycles(0), a.Dropped()+b.Dropped())
	}
}

// TestSendStampsEvalCycle: an NI woken from sleep by the configuration
// that opens its channel stamps Tag.SubmitCycle from the kernel exactly
// as the per-NI clock copy did — the cycle of the most recent Eval phase:
// Cycle()-1 for a host Send between steps, the current cycle for a Send
// from the ordered tail.
func TestSendStampsEvalCycle(t *testing.T) {
	s, a, b, mod := ladderPair(t)
	s.Run(100) // everything asleep
	openLadderPair(t, s, a, b, mod)
	between := s.Cycle() - 1
	if !a.Send(0, 1) {
		t.Fatal("send between steps refused")
	}
	midAt := s.Cycle() + 5
	var got []uint64
	s.AddOrdered(&sim.Func{Label: "ip", OnEval: func(cy uint64) {
		if cy == midAt && !a.Send(0, 2) {
			t.Error("mid-step send refused")
		}
		for {
			d, ok := b.Recv(0)
			if !ok {
				return
			}
			got = append(got, d.Tag.SubmitCycle)
		}
	}})
	s.Run(200)
	if len(got) != 2 || got[0] != between || got[1] != midAt {
		t.Fatalf("SubmitCycle stamps %v, want [%d %d]", got, between, midAt)
	}
}

// TestSilentOpenChannelSleeps: an open channel with nothing to send and
// no credit to return drives nothing, so both NIs sleep. Send wakes the
// source, the arriving word wakes the destination, Recv wakes it again
// to return the credit, and that credit wakes the source.
func TestSilentOpenChannelSleeps(t *testing.T) {
	s, a, b := pair(t, params())
	arm(t, a, b, slots.MaskOf(8, 1), slots.MaskOf(8, 4), 8, false)
	var driven []phit.Flit // what B drives toward A
	s.AddProbe(func(uint64) {
		if f := b.OutputWire().Get(); !f.IsIdle() {
			driven = append(driven, f)
		}
	})
	asleep := func() bool {
		before, _ := s.Evaluations()
		s.Run(64)
		after, _ := s.Evaluations()
		return after == before
	}
	s.Run(1) // both NIs are added awake and evaluate once
	if !asleep() {
		t.Fatal("NIs with an open, silent channel did not sleep")
	}
	if !a.Send(0, 0x5a) {
		t.Fatal("send refused")
	}
	if asleep() || b.RecvLen(0) != 1 || a.Credit(0) != 7 {
		t.Fatalf("after Send: delivered %d, source credit %d; want 1, 7", b.RecvLen(0), a.Credit(0))
	}
	if !asleep() {
		t.Fatal("NIs did not sleep once the word was delivered")
	}
	if d, ok := b.Recv(0); !ok || d.Word != 0x5a {
		t.Fatalf("Recv = %v, %v", d, ok)
	}
	// A credit of 1 drives word 0's chunk as zero and word 1's as one;
	// both words must cross for the source to get its credit back. No
	// other slot of B's drives anything.
	if asleep() || a.Credit(0) != 8 || b.DeliveredCredits(0) != 0 {
		t.Fatalf("after Recv: source credit %d, unreturned %d; want 8, 0", a.Credit(0), b.DeliveredCredits(0))
	}
	want := []phit.Flit{{Credit: 0, CreditValid: true}, {Credit: 1, CreditValid: true}}
	if len(driven) != 2 || driven[0] != want[0] || driven[1] != want[1] {
		t.Fatalf("B drove %v, want %v", driven, want)
	}
	if !asleep() {
		t.Fatal("NIs did not sleep once the credit was returned")
	}
}

// TestNewMakesOnlyWireRegisters pins that an NI puts only its wire in
// the kernel: the link toward its router. Its buffering stages are plain
// fields, and its configuration reaches it through the region's module,
// not through per-hop registers.
func TestNewMakesOnlyWireRegisters(t *testing.T) {
	s := sim.New()
	if _, err := New(s, "A", 1, params()); err != nil {
		t.Fatal(err)
	}
	if got, want := s.String(), "regs=1}"; !strings.HasSuffix(got, want) {
		t.Fatalf("after New: %s, want %s", got, want)
	}
}

// TestReopenWakesNI: a configuration write that gives a sleeping NI work
// wakes it. A's channel is opened without credit, stalls on a queued
// word, is closed (the NI goes to sleep with the word still queued), and
// is reopened with credit through the tree: the write lands after A's
// Eval, so only its wake gets the word out. The run is under the
// kernel's sleep-proof audit, which fails if A, left asleep, would have
// driven its link.
func TestReopenWakesNI(t *testing.T) {
	s, a, b, mod := ladderPair(t)
	s.Audit(func(msg string) { t.Fatal(msg) })
	write := func(ws ...cfgproto.RegWrite) {
		t.Helper()
		words, err := cfgproto.WriteRegPacket(ws)
		if err != nil {
			t.Fatal(err)
		}
		if err := mod.SubmitPacket(words); err != nil {
			t.Fatal(err)
		}
		s.Run(40)
	}
	flags := func(id int, v uint8) cfgproto.RegWrite {
		return cfgproto.RegWrite{Element: id, Reg: cfgproto.RegSelect(cfgproto.RegFlags, 0), Value: v}
	}
	write(flags(1, cfgproto.FlagOpen), flags(2, cfgproto.FlagOpen))
	if !a.Send(0, 0x77) {
		t.Fatal("send on the open channel refused")
	}
	s.Run(40)
	if a.CreditStallCycles(0) == 0 || a.SendQueueLen(0) != 1 {
		t.Fatalf("no credit: %d stalls, %d queued, want some and 1", a.CreditStallCycles(0), a.SendQueueLen(0))
	}
	write(flags(1, 0))
	before, _ := s.Evaluations()
	s.Run(40)
	if after, _ := s.Evaluations(); after != before {
		t.Fatalf("closed pair evaluated %d times in 40 cycles, want asleep", after-before)
	}
	write(cfgproto.RegWrite{Element: 1, Reg: cfgproto.RegSelect(cfgproto.RegCredit, 0), Value: 4}, flags(1, cfgproto.FlagOpen))
	if d, ok := b.Recv(0); !ok || d.Word != 0x77 {
		t.Fatalf("reopened channel delivered %v %v, want the queued word", d, ok)
	}
}

// TestRecvCommitsOnlyItsChannel: with a word waiting on each of the 8
// channels of B, a Recv on channel 3 commits channel 3 alone. Its
// delivery becomes an unreturned credit that B then returns to A; every
// other channel keeps its queued word, no unreturned credit and A's
// spent credit.
func TestRecvCommitsOnlyItsChannel(t *testing.T) {
	p := params()
	p.NumChannels = 8
	s, a, b := pair(t, p)
	const credit = 4
	for ch := range 8 {
		armChannel(t, a, b, ch, slots.MaskOf(8, ch), slots.MaskOf(8, ch), credit, false)
		if !a.Send(ch, phit.Word(0x10+ch)) {
			t.Fatalf("send on channel %d refused", ch)
		}
	}
	s.Run(40)
	others := func(when string) {
		t.Helper()
		for ch := range 8 {
			if ch == 3 {
				continue
			}
			if b.RecvLen(ch) != 1 || b.DeliveredCredits(ch) != 0 || a.Credit(ch) != credit-1 {
				t.Fatalf("%s: channel %d: %d queued, %d unreturned, source credit %d; want 1, 0, %d",
					when, ch, b.RecvLen(ch), b.DeliveredCredits(ch), a.Credit(ch), credit-1)
			}
		}
	}
	others("before Recv")
	if d, ok := b.Recv(3); !ok || d.Word != 0x13 {
		t.Fatalf("Recv(3) = %v %v, want 0x13", d, ok)
	}
	s.Step()
	if b.RecvLen(3) != 0 || b.DeliveredCredits(3) != 1 {
		t.Fatalf("after the commit: channel 3 has %d queued, %d unreturned; want 0, 1", b.RecvLen(3), b.DeliveredCredits(3))
	}
	others("after the commit")
	s.Run(40)
	if b.DeliveredCredits(3) != 0 || a.Credit(3) != credit {
		t.Fatalf("channel 3: %d unreturned, source credit %d; want 0, %d", b.DeliveredCredits(3), a.Credit(3), credit)
	}
	others("after the credit's return")
}

// forgetful stages a delivery into B's receive queue the way NI.Eval's
// receive path does, but without asking for the NI's Commit: the NI
// variant that forgets its request.
type forgetful struct {
	n  *NI
	at uint64
}

func (f *forgetful) Name() string { return "forgetful" }
func (f *forgetful) Eval(cycle uint64) {
	if cycle == f.at {
		c := f.n.channels[0]
		c.recvQ.Stage(Delivery{Word: 0x99, Cycle: cycle + 1})
		f.n.pushed = c
	}
}

// TestAuditCatchesAForgottenCommit: under the audit, an NI whose staged
// delivery was not followed by a request for its Commit fails the run
// when the audit's unrequested Commit wakes the channel's consumer,
// naming the NI; without the audit, the word never becomes visible.
func TestAuditCatchesAForgottenCommit(t *testing.T) {
	run := func(audited bool) (*NI, []string) {
		s, a, b := pair(t, params())
		arm(t, a, b, slots.MaskOf(8, 1), slots.MaskOf(8, 3), 4, false)
		var msgs []string
		if audited {
			s.Audit(func(msg string) { msgs = append(msgs, msg) })
		}
		s.AddOrdered(&forgetful{n: b, at: 5})
		var consumer sim.Activity
		consumer = s.AddOrdered(&sim.Func{Label: "consumer", OnEval: func(uint64) { consumer.Sleep() }})
		b.WatchRecv(0, consumer)
		s.Run(20)
		return b, msgs
	}
	if b, msgs := run(false); b.RecvLen(0) != 0 || len(msgs) != 0 {
		t.Fatalf("unaudited: %d words visible, audit said %q; want 0 and nothing", b.RecvLen(0), msgs)
	}
	_, msgs := run(true)
	want := "sleep audit: cycle 5: B did not ask for its commit but woke consumer"
	if len(msgs) != 1 || msgs[0] != want {
		t.Fatalf("audit said %q, want exactly %q", msgs, want)
	}
}
