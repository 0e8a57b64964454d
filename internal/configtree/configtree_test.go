package configtree

import (
	"testing"

	"daelite/internal/cfgproto"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/slots"
)

// elem is a test element on the tree: it records the effects it receives
// with their cycle, and answers reads from regs while answer is set.
type elem struct {
	s       *sim.Simulator
	regs    map[uint8]uint8
	answer  bool
	applied []applied
}

type applied struct {
	cycle uint64
	mask  slots.Mask
	spec  cfgproto.PortSpec
	reg   uint8
	value uint8
}

func (e *elem) cycle() uint64 {
	if e.s == nil {
		return 0
	}
	return e.s.EvalCycle()
}

func (e *elem) ApplySlots(mask slots.Mask, spec cfgproto.PortSpec) {
	e.applied = append(e.applied, applied{cycle: e.cycle(), mask: mask, spec: spec})
}

func (e *elem) WriteReg(reg, value uint8) {
	e.applied = append(e.applied, applied{cycle: e.cycle(), reg: reg, value: value})
}

func (e *elem) ReadReg(reg uint8) (uint8, bool) {
	v, ok := e.regs[reg]
	return v, ok && e.answer
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.Cooldown <= 0 || p.QueueDepth <= 0 {
		t.Fatalf("defaults: %+v", p)
	}
}

func collectWire(s *sim.Simulator, w *sim.Reg[phit.ConfigWord]) *[]phit.ConfigWord {
	var got []phit.ConfigWord
	s.AddProbe(func(uint64) {
		if v := w.Get(); v.Valid {
			got = append(got, v)
		}
	})
	return &got
}

func TestSerializesOneWordPerCycle(t *testing.T) {
	s := sim.New()
	m := New(s, "cfg", Params{Cooldown: 3, QueueDepth: 64})
	got := collectWire(s, m.RootWire())
	words := []phit.ConfigWord{
		cfgproto.Header(cfgproto.OpNop, 0),
		phit.NewConfigWord(0x11),
		phit.NewConfigWord(0x22),
	}
	if err := m.SubmitPacket(words); err != nil {
		t.Fatal(err)
	}
	if !m.Busy() {
		t.Fatal("not busy after submit")
	}
	s.Run(20)
	if len(*got) != 3 {
		t.Fatalf("transmitted %d words, want 3", len(*got))
	}
	for i := range words {
		if (*got)[i] != words[i] {
			t.Fatalf("word %d = %v, want %v", i, (*got)[i], words[i])
		}
	}
	if m.Busy() {
		t.Fatal("still busy after drain")
	}
	pkts, wsent := m.Stats()
	if pkts != 1 || wsent != 3 {
		t.Fatalf("stats: %d packets %d words", pkts, wsent)
	}
}

func TestCooldownSeparatesPackets(t *testing.T) {
	s := sim.New()
	const cooldown = 5
	m := New(s, "cfg", Params{Cooldown: cooldown, QueueDepth: 64})
	var activity []bool // per cycle: wire valid?
	s.AddProbe(func(uint64) {
		activity = append(activity, m.RootWire().Get().Valid)
	})
	p1 := []phit.ConfigWord{cfgproto.Header(cfgproto.OpNop, 0), phit.NewConfigWord(1)}
	p2 := []phit.ConfigWord{cfgproto.Header(cfgproto.OpNop, 0), phit.NewConfigWord(2)}
	if err := m.SubmitPacket(p1); err != nil {
		t.Fatal(err)
	}
	if err := m.SubmitPacket(p2); err != nil {
		t.Fatal(err)
	}
	s.Run(30)
	// Find the gap between the two bursts of activity.
	var bursts [][2]int
	in := false
	start := 0
	for i, v := range activity {
		if v && !in {
			in, start = true, i
		}
		if !v && in {
			in = false
			bursts = append(bursts, [2]int{start, i})
		}
	}
	if len(bursts) != 2 {
		t.Fatalf("bursts = %v", bursts)
	}
	gap := bursts[1][0] - bursts[0][1]
	if gap != cooldown {
		t.Fatalf("inter-packet gap = %d cycles, want cooldown %d", gap, cooldown)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := sim.New()
	m := New(s, "cfg", Params{Cooldown: 1, QueueDepth: 4})
	if err := m.SubmitPacket(nil); err == nil {
		t.Fatal("empty packet accepted")
	}
	big := make([]phit.ConfigWord, 5)
	for i := range big {
		big[i] = phit.NewConfigWord(0)
	}
	if err := m.SubmitPacket(big); err == nil {
		t.Fatal("oversized packet accepted")
	}
	// Two reads may not be outstanding at once, even within one cycle.
	rd, _ := cfgproto.ReadRegPacket(3, 0)
	if err := m.SubmitPacket(rd); err != nil {
		t.Fatal(err)
	}
	if err := m.SubmitPacket(rd); err == nil {
		t.Fatal("second read accepted while first pending")
	}
}

func TestReadRoundTrip(t *testing.T) {
	s := sim.New()
	m := New(s, "cfg", Params{Cooldown: 2, QueueDepth: 64})
	e := &elem{regs: map[uint8]uint8{7: 0x2A}, answer: true}
	m.ConnectResponse(m.ForwardWire().Attach(3, 8, true, e))
	rd, _ := cfgproto.ReadRegPacket(3, 7)
	if err := m.SubmitPacket(rd); err != nil {
		t.Fatal(err)
	}
	if _, valid := m.ReadValue(); valid {
		t.Fatal("read value valid before response")
	}
	s.Run(4)
	if !m.ReadOutstanding() {
		t.Fatal("read not outstanding")
	}
	s.Run(6)
	if m.ReadOutstanding() {
		t.Fatal("read still outstanding after response")
	}
	v, valid := m.ReadValue()
	if !valid || v != 0x2A {
		t.Fatalf("read value = %#x %v", v, valid)
	}
	// A new read is allowed now.
	if err := m.SubmitPacket(rd); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitHostWords(t *testing.T) {
	s := sim.New()
	m := New(s, "cfg", DefaultParams())
	words := []phit.ConfigWord{
		cfgproto.Header(cfgproto.OpNop, 0),
		phit.NewConfigWord(0x55),
	}
	packed := cfgproto.Pack32(words)
	if err := m.SubmitHostWords(packed, len(words)); err != nil {
		t.Fatal(err)
	}
	got := collectWire(s, m.RootWire())
	s.Run(10)
	if len(*got) != 2 || (*got)[1].Bits != 0x55 {
		t.Fatalf("host-word submission transmitted %v", *got)
	}
	if err := m.SubmitHostWords(packed, 99); err == nil {
		t.Fatal("bad count accepted")
	}
}

func TestQueueDepthAccountsPending(t *testing.T) {
	s := sim.New()
	m := New(s, "cfg", Params{Cooldown: 0, QueueDepth: 4})
	p := []phit.ConfigWord{cfgproto.Header(cfgproto.OpNop, 0), phit.NewConfigWord(1), phit.NewConfigWord(2)}
	if err := m.SubmitPacket(p); err != nil {
		t.Fatal(err)
	}
	// 3 words staged this same cycle; another 3 would exceed 4.
	if err := m.SubmitPacket(p); err == nil {
		t.Fatal("overflow within one cycle accepted")
	}
	s.Run(10)
	if err := m.SubmitPacket(p); err != nil {
		t.Fatalf("queue did not drain: %v", err)
	}
}

func TestLastPacketCycle(t *testing.T) {
	s := sim.New()
	m := New(s, "cfg", Params{Cooldown: 1, QueueDepth: 16})
	p := []phit.ConfigWord{cfgproto.Header(cfgproto.OpNop, 0)}
	if err := m.SubmitPacket(p); err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	if m.LastPacketCycle() == 0 {
		t.Fatal("LastPacketCycle not recorded")
	}
}

func TestReadTimeoutAbortsAfterRetries(t *testing.T) {
	s := sim.New()
	m := New(s, "cfg", Params{Cooldown: 2, QueueDepth: 64, ReadTimeout: 8, ReadRetries: 2, ReadBackoff: 2})
	rd, _ := cfgproto.ReadRegPacket(3, 0)
	if err := m.SubmitPacket(rd); err != nil {
		t.Fatal(err)
	}
	// No element ever answers: the watchdog must retry twice (timeouts at
	// 8, then 16 cycles of backoff) and then abort.
	s.RunUntil(func() bool { return !m.ReadOutstanding() }, 200)
	if m.ReadOutstanding() {
		t.Fatal("read still outstanding after budget")
	}
	if !m.ReadAborted() {
		t.Fatal("read not marked aborted")
	}
	if _, valid := m.ReadValue(); valid {
		t.Fatal("aborted read left a valid value")
	}
	timeouts, retries := m.ReadFaultStats()
	if timeouts != 3 || retries != 2 {
		t.Fatalf("fault stats: %d timeouts %d retries, want 3 and 2", timeouts, retries)
	}
	// The module is usable again: a fresh read clears the aborted flag.
	if err := m.SubmitPacket(rd); err != nil {
		t.Fatal(err)
	}
	if m.ReadAborted() {
		t.Fatal("aborted flag not cleared by new read")
	}
}

func TestCooldownEnforcedAcrossRetransmission(t *testing.T) {
	s := sim.New()
	// The timeout fires while the post-packet cool-down is still running:
	// the retransmission must nevertheless wait the cool-down out.
	const cooldown = 10
	m := New(s, "cfg", Params{Cooldown: cooldown, QueueDepth: 64, ReadTimeout: 2, ReadRetries: 1, ReadBackoff: 2})
	var activity []bool
	s.AddProbe(func(uint64) {
		activity = append(activity, m.RootWire().Get().Valid)
	})
	rd, _ := cfgproto.ReadRegPacket(3, 0)
	if err := m.SubmitPacket(rd); err != nil {
		t.Fatal(err)
	}
	s.Run(60)
	var bursts [][2]int
	in := false
	start := 0
	for i, v := range activity {
		if v && !in {
			in, start = true, i
		}
		if !v && in {
			in = false
			bursts = append(bursts, [2]int{start, i})
		}
	}
	if len(bursts) != 2 {
		t.Fatalf("bursts = %v, want original + one retransmission", bursts)
	}
	if gap := bursts[1][0] - bursts[0][1]; gap < cooldown {
		t.Fatalf("retransmission after %d idle cycles, cool-down is %d", gap, cooldown)
	}
}

func TestOneOutstandingUnderSymbolLoss(t *testing.T) {
	s := sim.New()
	m := New(s, "cfg", Params{Cooldown: 2, QueueDepth: 64, ReadTimeout: 6, ReadRetries: 3, ReadBackoff: 2})
	// Model total config-symbol loss downstream: the element never
	// answers, so no response comes back while the watchdog retries.
	// Throughout the whole episode a second read must be refused.
	e := &elem{regs: map[uint8]uint8{1: 0x19}}
	m.ConnectResponse(m.ForwardWire().Attach(5, 8, true, e))
	rd, _ := cfgproto.ReadRegPacket(5, 1)
	if err := m.SubmitPacket(rd); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		s.Step()
		if m.ReadOutstanding() {
			if err := m.SubmitPacket(rd); err == nil {
				t.Fatalf("cycle %d: second read accepted while one outstanding", i)
			}
		}
	}
	// Let the element finally answer a later retransmission.
	e.answer = true
	s.RunUntil(func() bool { return !m.ReadOutstanding() }, 200)
	if m.ReadOutstanding() || m.ReadAborted() {
		t.Fatalf("outstanding=%v aborted=%v after late answer", m.ReadOutstanding(), m.ReadAborted())
	}
	if v, valid := m.ReadValue(); !valid || v != 0x19 {
		t.Fatalf("read value = %#x %v", v, valid)
	}
	if _, retries := m.ReadFaultStats(); retries == 0 {
		t.Fatal("answered without a retransmission")
	}
	// And a new read is accepted again.
	if err := m.SubmitPacket(rd); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitWakesSleepingModule: an idle module sleeps after its first
// Eval; SubmitPacket from the host wakes it, the packet drains one word
// per cycle from the next cycle on, and the module sleeps again once its
// cool-down is over.
func TestSubmitWakesSleepingModule(t *testing.T) {
	s := sim.New()
	const cooldown = 4
	m := New(s, "cfg", Params{Cooldown: cooldown, QueueDepth: 64})
	got := collectWire(s, m.RootWire())
	s.Run(50)
	if evaluated, _ := s.Evaluations(); evaluated != 1 {
		t.Fatalf("idle module evaluated %d times in 50 cycles, want 1", evaluated)
	}
	words := []phit.ConfigWord{cfgproto.Header(cfgproto.OpNop, 0), phit.NewConfigWord(0x11), phit.NewConfigWord(0x22)}
	n := uint64(len(words))
	if err := m.SubmitPacket(words); err != nil {
		t.Fatal(err)
	}
	s.Run(50)
	if len(*got) != len(words) || m.Busy() || m.LastPacketCycle() != 50+1+n {
		t.Fatalf("drained %d of %d words (busy %v, last word at cycle %d, want %d)",
			len(*got), n, m.Busy(), m.LastPacketCycle(), 50+1+n)
	}
	// The submit step folds the packet in, one Eval per word drives it,
	// the cool-down runs its cycles, and the last of them sleeps.
	if evaluated, _ := s.Evaluations(); evaluated != 1+1+n+cooldown {
		t.Fatalf("module evaluated %d times, want %d", evaluated, 1+1+n+cooldown)
	}
}

// TestZeroCooldownDrivesEachWordOnce: with no cool-down the module must
// not sleep in the Eval that drives a packet's last word, or the root
// forward wire would hold that word for good. Every cycle's wire value is
// recorded: each word appears once, then the wire is idle and the module
// quiet.
func TestZeroCooldownDrivesEachWordOnce(t *testing.T) {
	s := sim.New()
	m := New(s, "cfg", Params{Cooldown: 0, QueueDepth: 64})
	got := collectWire(s, m.RootWire())
	words := []phit.ConfigWord{cfgproto.Header(cfgproto.OpNop, 0), phit.NewConfigWord(0x11), phit.NewConfigWord(0x22)}
	if err := m.SubmitPacket(words); err != nil {
		t.Fatal(err)
	}
	s.Run(20)
	if len(*got) != len(words) {
		t.Fatalf("wire carried %d valid words over 20 cycles, want %d: %v", len(*got), len(words), *got)
	}
	for i := range words {
		if (*got)[i] != words[i] {
			t.Fatalf("word %d = %v, want %v", i, (*got)[i], words[i])
		}
	}
	if w := m.RootWire().Get(); w != (phit.ConfigWord{}) {
		t.Fatalf("forward wire holds %v after the packet, want idle", w)
	}
	before, _ := s.Evaluations()
	s.Run(20)
	if after, _ := s.Evaluations(); after != before {
		t.Fatalf("drained module evaluated %d more times, want asleep", after-before)
	}
}
