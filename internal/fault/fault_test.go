package fault

import (
	"fmt"
	"testing"

	"daelite/internal/core"
	"daelite/internal/ni"
	"daelite/internal/sim"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

func platform(t testing.TB, w, h int) *core.Platform {
	t.Helper()
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: w, Height: h, NIsPerRouter: 1}, core.DefaultParams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func openConn(t testing.TB, p *core.Platform, src, dst topology.NodeID) *core.Connection {
	t.Helper()
	c, err := p.Open(core.ConnectionSpec{Src: src, Dst: dst, SlotsFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 10000); err != nil {
		t.Fatal(err)
	}
	return c
}

// routerHop returns a router-to-router link of the connection's forward
// path.
func routerHop(t testing.TB, p *core.Platform, c *core.Connection) topology.LinkID {
	t.Helper()
	for _, l := range c.Fwd.Paths[0].Path {
		link := p.Mesh.Link(l)
		if _, ok := p.Routers[link.From]; !ok {
			continue
		}
		if _, ok := p.Routers[link.To]; ok {
			return l
		}
	}
	t.Fatal("forward path has no router-to-router hop")
	return 0
}

func TestLinkDownStopsDelivery(t *testing.T) {
	p := platform(t, 2, 2)
	src, dst := p.Mesh.NI(0, 0, 0), p.Mesh.NI(1, 0, 0)
	c := openConn(t, p, src, dst)
	hop := routerHop(t, p, c)

	failAt := p.Cycle() + 200
	inj, err := Attach(p, 1, Fault{Kind: LinkDown, Link: hop, From: failAt})
	if err != nil {
		t.Fatal(err)
	}
	srcN, dstN := p.NI(src), p.NI(dst)
	traffic.NewSource(p.Sim, "src", srcN, c.SrcChannel, traffic.SourceConfig{Rate: 0.2, Seed: 7})
	sink := traffic.NewSink(p.Sim, "sink", dstN, c.DstChannel)

	p.Run(400)
	healthy := sink.Received()
	if healthy == 0 {
		t.Fatal("no deliveries before running past the fault window")
	}
	afterFault := sink.Received()
	p.Run(400)
	// A couple of in-flight words may still arrive right after the cut;
	// beyond that, delivery must be fully stopped.
	if got := sink.Received() - afterFault; got > 4 {
		t.Fatalf("%d words delivered across a dead link", got)
	}
	if inj.Counters().FlitsKilled == 0 {
		t.Fatal("no flits killed on a link with traffic")
	}
	if dead := inj.DeadLinks(p.Cycle()); len(dead) != 1 || dead[0] != hop {
		t.Fatalf("DeadLinks = %v, want [%d]", dead, hop)
	}
}

// TestInjectorSleepsBetweenActs: the injector sleeps outside its windows
// and on inert wires inside them, and loses nothing by it. Audited
// (every would-be-asleep Eval still runs and must set nothing) and
// fast-forwarded, every fault arms and announces in the cycle it does
// stepped, with the same activations and deliveries.
func TestInjectorSleepsBetweenActs(t *testing.T) {
	run := func(ff, audit bool) (string, uint64) {
		p := platform(t, 2, 2)
		if audit {
			p.Sim.Audit(func(msg string) { t.Fatal(msg) })
		}
		if ff {
			p.Sim.EnableFastForward()
		}
		src, dst := p.Mesh.NI(0, 0, 0), p.Mesh.NI(1, 0, 0)
		c := openConn(t, p, src, dst)
		hop := routerHop(t, p, c)
		at := p.Cycle()
		inj, err := Attach(p, 3,
			Fault{Kind: PayloadFlip, Link: hop, From: at + 100, To: at + 250, Prob: 0.5, Bit: -1},
			Fault{Kind: LinkDown, Link: hop, From: at + 300, To: at + 600},
			Fault{Kind: ConfigFlip, From: at + 700, To: at + 800},
			Fault{Kind: SlotTableFlip, Router: p.Mesh.Link(hop).From, Out: p.Mesh.Link(hop).FromPort, Slot: 1, From: at + 2500})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		inj.AttachTelemetry(reg)
		traffic.NewSource(p.Sim, "src", p.NI(src), c.SrcChannel, traffic.SourceConfig{Rate: 0.2, Limit: 150, Seed: 7})
		sink := traffic.NewSink(p.Sim, "sink", p.NI(dst), c.DstChannel)
		p.Run(3000)
		return fmt.Sprint(reg.Events(), inj.Counters(), sink.Received()), p.Sim.SkippedCycles()
	}
	want, _ := run(false, false)
	if got, _ := run(false, true); got != want {
		t.Fatalf("audited: %s\nstepped: %s", got, want)
	}
	got, skipped := run(true, false)
	if got != want || skipped == 0 {
		t.Fatalf("fast-forwarded (%d cycles skipped): %s\nstepped: %s", skipped, got, want)
	}
}

func TestPayloadFlipCorruptsWords(t *testing.T) {
	p := platform(t, 2, 2)
	src, dst := p.Mesh.NI(0, 0, 0), p.Mesh.NI(1, 0, 0)
	c := openConn(t, p, src, dst)
	hop := routerHop(t, p, c)

	from := p.Cycle()
	inj, err := Attach(p, 2, Fault{Kind: PayloadFlip, Link: hop, From: from, To: from + 5000, Bit: 3})
	if err != nil {
		t.Fatal(err)
	}
	srcN, dstN := p.NI(src), p.NI(dst)
	traffic.NewSource(p.Sim, "src", srcN, c.SrcChannel, traffic.SourceConfig{Rate: 0.2, Seed: 7})
	sink := traffic.NewSink(p.Sim, "sink", dstN, c.DstChannel)
	sink.SetVerify(func(d ni.Delivery) error {
		if uint64(d.Word) != d.Tag.Seq {
			return fmt.Errorf("word %#x at seq %d", uint32(d.Word), d.Tag.Seq)
		}
		return nil
	})
	p.Run(600)
	if inj.Counters().PayloadFlips == 0 {
		t.Fatal("no payload flips on a loaded link")
	}
	if sink.VerifyErr() == nil {
		t.Fatal("bit errors did not corrupt any delivered word")
	}
}

func TestSlotTableFlipUpsetsEntry(t *testing.T) {
	p := platform(t, 2, 2)
	src, dst := p.Mesh.NI(0, 0, 0), p.Mesh.NI(1, 0, 0)
	c := openConn(t, p, src, dst)
	hop := routerHop(t, p, c)
	link := p.Mesh.Link(hop)
	r := p.Routers[link.From]
	// Find a programmed entry on the faulted output.
	out := link.FromPort
	slot := -1
	for s := 0; s < r.Table().Size(); s++ {
		if r.Table().Input(out, s) >= 0 {
			slot = s
			break
		}
	}
	if slot < 0 {
		t.Fatal("no programmed slot on the connection's output")
	}
	inj, err := Attach(p, 3, Fault{Kind: SlotTableFlip, Router: link.From, Out: out, Slot: slot, From: p.Cycle() + 10})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(50)
	if got := r.Table().Input(out, slot); got >= 0 {
		t.Fatalf("entry still programmed (input %d) after upset", got)
	}
	if inj.Counters().TableFlips != 1 {
		t.Fatalf("TableFlips = %d", inj.Counters().TableFlips)
	}
}

func TestConfigDropBlocksSetup(t *testing.T) {
	p := platform(t, 2, 2)
	// Drop every configuration symbol from the start: a connection's
	// set-up packets never reach any element, so its slot tables stay
	// empty and nothing is ever delivered.
	inj, err := Attach(p, 4, Fault{Kind: ConfigDrop, Link: 0, From: 1, To: 100000})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := p.Mesh.NI(0, 0, 0), p.Mesh.NI(1, 0, 0)
	c, err := p.Open(core.ConnectionSpec{Src: src, Dst: dst, SlotsFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 10000); err != nil {
		t.Fatal(err)
	}
	if inj.Counters().ConfigDrops == 0 {
		t.Fatal("no config symbols dropped")
	}
	// The source channel flags were never set, so the NI refuses sends.
	if p.NI(src).Flags(c.SrcChannel) != 0 {
		t.Fatal("flags reached the NI despite total symbol loss")
	}
}

func digestRun(t *testing.T, seed uint64) string {
	t.Helper()
	p := platform(t, 3, 3)
	src, dst := p.Mesh.NI(0, 0, 0), p.Mesh.NI(2, 1, 0)
	c := openConn(t, p, src, dst)
	hop := routerHop(t, p, c)
	from := p.Cycle() + 100
	inj, err := Attach(p, seed,
		Fault{Kind: PayloadFlip, Link: hop, From: from, To: from + 800, Prob: 0.3, Bit: -1},
		Fault{Kind: LinkDown, Link: hop, From: from + 1000, To: from + 1200},
	)
	if err != nil {
		t.Fatal(err)
	}
	traffic.NewSource(p.Sim, "src", p.NI(src), c.SrcChannel, traffic.SourceConfig{Rate: 0.3, Seed: 11})
	sink := traffic.NewSink(p.Sim, "sink", p.NI(dst), c.DstChannel)
	var h uint64 = 14695981039346656037
	sink.SetVerify(func(d ni.Delivery) error {
		h = (h ^ uint64(d.Word)) * 1099511628211
		h = (h ^ d.Tag.Seq) * 1099511628211
		return nil
	})
	p.Run(2000)
	cnt := inj.Counters()
	return fmt.Sprintf("%x/%d/%+v", h, sink.Received(), cnt)
}

func TestDeterministicReplay(t *testing.T) {
	a := digestRun(t, 42)
	b := digestRun(t, 42)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	c := digestRun(t, 43)
	if a == c {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestPickLinksDeterministic(t *testing.T) {
	p := platform(t, 3, 3)
	cands := RouterLinks(p)
	if len(cands) != 24 { // 12 mesh edges, bidirectional
		t.Fatalf("router links = %d, want 24", len(cands))
	}
	a := PickLinks(sim.NewRNG(9), cands, 5)
	b := PickLinks(sim.NewRNG(9), cands, 5)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed picked %v then %v", a, b)
	}
	seen := make(map[topology.LinkID]bool)
	for _, l := range a {
		if seen[l] {
			t.Fatalf("duplicate pick %d", l)
		}
		seen[l] = true
	}
	if got := PickLinks(sim.NewRNG(9), cands, 99); len(got) != len(cands) {
		t.Fatalf("over-asking returned %d links", len(got))
	}
}

func TestAttachValidation(t *testing.T) {
	p := platform(t, 2, 2)
	if _, err := Attach(p, 1, Fault{Kind: LinkDown, Link: 9999}); err == nil {
		t.Fatal("bad link accepted")
	}
	if _, err := Attach(p, 1, Fault{Kind: SlotTableFlip, Router: p.Mesh.NI(0, 0, 0)}); err == nil {
		t.Fatal("NI accepted as slot-table target")
	}
	if _, err := Attach(p, 1, Fault{Kind: Kind(99)}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
