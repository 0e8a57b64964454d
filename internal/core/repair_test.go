package core_test

import (
	"fmt"
	"testing"

	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

func repairPlatform(t testing.TB, w, h int) *core.Platform {
	t.Helper()
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: w, Height: h, NIsPerRouter: 1}, core.DefaultParams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func openAwait(t testing.TB, p *core.Platform, spec core.ConnectionSpec) *core.Connection {
	t.Helper()
	c, err := p.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 20000); err != nil {
		t.Fatal(err)
	}
	return c
}

func findLink(t testing.TB, p *core.Platform, from, to topology.NodeID) topology.LinkID {
	t.Helper()
	for _, l := range p.Mesh.Links() {
		if l.From == from && l.To == to {
			return l.ID
		}
	}
	t.Fatalf("no link %d -> %d", from, to)
	return 0
}

func pathUses(c *core.Connection, link topology.LinkID) bool {
	for _, pa := range c.Fwd.Paths {
		for _, l := range pa.Path {
			if l == link {
				return true
			}
		}
	}
	return false
}

func revPathUses(c *core.Connection, link topology.LinkID) bool {
	for _, pa := range c.Rev.Paths {
		for _, l := range pa.Path {
			if l == link {
				return true
			}
		}
	}
	return false
}

// TestDiagnosisNotFooledByReverseCrossingTraffic pins a localization
// hazard: a connection whose *reverse* (credit) path crosses the dead link
// keeps delivering forward words until its credit pool drains, so at the
// victim's detection time it still looks healthy. Its recent progress must
// exonerate only its forward links — otherwise it vouches for the very
// link that is killing it, the suspect set comes back empty, and the first
// repair re-routes straight back through the fault.
func TestDiagnosisNotFooledByReverseCrossingTraffic(t *testing.T) {
	p := repairPlatform(t, 4, 4)
	m := p.Mesh

	victim := openAwait(t, p, core.ConnectionSpec{Src: m.NI(0, 0, 0), Dst: m.NI(3, 0, 0), SlotsFwd: 2})
	// Opposer runs the same row the other way: its forward path survives
	// the fault, its reverse path crosses it.
	opposer := openAwait(t, p, core.ConnectionSpec{Src: m.NI(3, 0, 0), Dst: m.NI(0, 0, 0), SlotsFwd: 1})

	dead := findLink(t, p, m.Router(2, 0), m.Router(3, 0))
	if !pathUses(victim, dead) {
		t.Fatalf("victim path %v does not cross link %d", victim.Fwd.Paths[0].Path, dead)
	}
	if pathUses(opposer, dead) {
		t.Fatalf("opposer's forward path unexpectedly crosses link %d", dead)
	}
	if !revPathUses(opposer, dead) {
		t.Fatalf("precondition lost: opposer's reverse path %v misses link %d", opposer.Rev.Paths[0].Path, dead)
	}

	failAt := p.Cycle() + 300
	if _, err := fault.Attach(p, 9, fault.Fault{Kind: fault.LinkDown, Link: dead, From: failAt}); err != nil {
		t.Fatal(err)
	}

	traffic.NewSource(p.Sim, "v-src", p.NI(m.NI(0, 0, 0)), victim.SrcChannel, traffic.SourceConfig{Rate: 0.2, Seed: 1})
	traffic.NewSink(p.Sim, "v-sink", p.NI(m.NI(3, 0, 0)), victim.DstChannel)
	traffic.NewSource(p.Sim, "o-src", p.NI(m.NI(3, 0, 0)), opposer.SrcChannel, traffic.SourceConfig{Rate: 0.1, Seed: 2})
	traffic.NewSink(p.Sim, "o-sink", p.NI(m.NI(0, 0, 0)), opposer.DstChannel)

	mon := core.NewHealthMonitor(p, 128)
	if _, ok := p.Sim.RunUntil(func() bool { return len(mon.Stalled()) > 0 }, 5000); !ok {
		t.Fatal("stall never detected")
	}
	// The scenario only bites while the opposer still looks healthy: the
	// victim (dead forward path) must stall strictly first.
	stalled := mon.Stalled()
	if len(stalled) != 1 || stalled[0].ID != victim.ID {
		t.Fatalf("stalled = %v, want only victim %d (opposer must still look healthy)", stalled, victim.ID)
	}

	suspects := mon.SuspectLinks()
	for _, l := range suspects {
		if l == dead {
			return
		}
	}
	t.Fatalf("dead link %d exonerated by reverse-crossing traffic; suspects = %v", dead, suspects)
}

// TestRepairAfterLinkFailure is the core-level chaos scenario: a seeded
// permanent single-link fault on a 4x4 mesh mid-run; the stalled connection
// is detected, diagnosed, and repaired around the dead link; the unaffected
// connection loses zero words.
func TestRepairAfterLinkFailure(t *testing.T) {
	p := repairPlatform(t, 4, 4)
	m := p.Mesh

	// Victim: row 0 end to end. Witness: a healthy connection sharing the
	// live part of row 0 (exonerates its links in diagnosis). Bystander:
	// traffic in row 2, far from the fault.
	victim := openAwait(t, p, core.ConnectionSpec{Src: m.NI(0, 0, 0), Dst: m.NI(3, 0, 0), SlotsFwd: 2})
	witness := openAwait(t, p, core.ConnectionSpec{Src: m.NI(1, 0, 0), Dst: m.NI(2, 0, 0), SlotsFwd: 1})
	bystander := openAwait(t, p, core.ConnectionSpec{Src: m.NI(0, 2, 0), Dst: m.NI(3, 2, 0), SlotsFwd: 1})

	dead := findLink(t, p, m.Router(2, 0), m.Router(3, 0))
	if !pathUses(victim, dead) {
		t.Fatalf("victim path %v does not cross link %d", victim.Fwd.Paths[0].Path, dead)
	}

	failAt := p.Cycle() + 300
	inj, err := fault.Attach(p, 77, fault.Fault{Kind: fault.LinkDown, Link: dead, From: failAt})
	if err != nil {
		t.Fatal(err)
	}

	const bystanderWords = 300
	vSrc := traffic.NewSource(p.Sim, "v-src", p.NI(m.NI(0, 0, 0)), victim.SrcChannel, traffic.SourceConfig{Rate: 0.2, Seed: 1})
	vSink := traffic.NewSink(p.Sim, "v-sink", p.NI(m.NI(3, 0, 0)), victim.DstChannel)
	traffic.NewSource(p.Sim, "w-src", p.NI(m.NI(1, 0, 0)), witness.SrcChannel, traffic.SourceConfig{Rate: 0.1, Seed: 2})
	traffic.NewSink(p.Sim, "w-sink", p.NI(m.NI(2, 0, 0)), witness.DstChannel)
	bSrc := traffic.NewSource(p.Sim, "b-src", p.NI(m.NI(0, 2, 0)), bystander.SrcChannel, traffic.SourceConfig{Rate: 0.1, Seed: 3, Limit: bystanderWords})
	bSink := traffic.NewSink(p.Sim, "b-sink", p.NI(m.NI(3, 2, 0)), bystander.DstChannel)

	mon := core.NewHealthMonitor(p, 128)

	// Phase 1: healthy operation past the fault cycle; detection fires.
	if _, ok := p.Sim.RunUntil(func() bool { return len(mon.Stalled()) > 0 }, 5000); !ok {
		t.Fatal("stall never detected")
	}
	stalled := mon.Stalled()
	if len(stalled) != 1 || stalled[0].ID != victim.ID {
		t.Fatalf("stalled = %v, want only victim %d", stalled, victim.ID)
	}
	detect := mon.DetectCycle(victim.ID)
	if detect <= failAt {
		t.Fatalf("detected at %d, before the fault at %d", detect, failAt)
	}

	// Phase 2: diagnosis localizes the dead link and spares the witness's
	// and bystander's links.
	suspects := mon.SuspectLinks()
	found := false
	for _, l := range suspects {
		if l == dead {
			found = true
		}
		if pathUses(witness, l) || pathUses(bystander, l) {
			t.Fatalf("suspect %d is on a healthy connection's path", l)
		}
	}
	if !found {
		t.Fatalf("dead link %d not among suspects %v", dead, suspects)
	}

	// Phase 3: repair.
	results, err := p.RepairStalled(mon, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("repaired %d connections, want 1", len(results))
	}
	res := results[0]
	if res.Conn == nil || res.RepairCycles() == 0 {
		t.Fatalf("bad result %+v", res)
	}
	if res.Conn.SrcChannel != victim.SrcChannel || res.Conn.DstChannel != victim.DstChannel {
		t.Fatalf("repair changed channels: %d/%d -> %d/%d",
			victim.SrcChannel, victim.DstChannel, res.Conn.SrcChannel, res.Conn.DstChannel)
	}
	if pathUses(res.Conn, dead) {
		t.Fatalf("repaired path %v still uses dead link %d", res.Conn.Fwd.Paths[0].Path, dead)
	}

	// Phase 4: traffic resumes over the new path; the backlog queued at
	// the source during the outage is delivered in order.
	before := vSink.Received()
	p.Run(3000)
	if vSink.Received() <= before {
		t.Fatal("no deliveries after repair")
	}
	if vSink.OutOfOrder() != 0 {
		t.Fatalf("%d out-of-order deliveries across repair", vSink.OutOfOrder())
	}
	// Loss on the victim is bounded by what was in flight or killed on
	// the dead link before the source's credits ran out.
	loss := vSrc.Sent() - vSink.Received() - uint64(p.NI(m.NI(0, 0, 0)).SendQueueLen(res.Conn.SrcChannel))
	if loss > uint64(p.Params.RecvQueueDepth)+4 {
		t.Fatalf("victim lost %d words, more than the in-flight bound", loss)
	}

	// The bystander loses nothing, ever.
	if _, ok := p.Sim.RunUntil(func() bool { return bSink.Received() >= bystanderWords }, 10000); !ok {
		t.Fatalf("bystander delivered %d/%d", bSink.Received(), bystanderWords)
	}
	if bSrc.Sent() != bystanderWords || bSink.Received() != bystanderWords || bSink.OutOfOrder() != 0 {
		t.Fatalf("bystander sent %d received %d ooo %d", bSrc.Sent(), bSink.Received(), bSink.OutOfOrder())
	}
	if killed := inj.Counters().FlitsKilled; killed == 0 {
		t.Fatal("fault never killed a flit")
	}
}

func TestRepairMulticastAroundDeadEdge(t *testing.T) {
	p := repairPlatform(t, 3, 3)
	m := p.Mesh
	dsts := []topology.NodeID{m.NI(2, 0, 0), m.NI(2, 2, 0)}
	c := openAwait(t, p, core.ConnectionSpec{Src: m.NI(0, 0, 0), Dsts: dsts, SlotsFwd: 1})

	// Kill one tree edge (a router-router one).
	var dead topology.LinkID = -1
	for _, e := range c.Tree.Edges {
		l := p.Mesh.Link(e.Link)
		if p.Routers[l.From] != nil && p.Routers[l.To] != nil {
			dead = e.Link
			break
		}
	}
	if dead < 0 {
		t.Fatal("tree has no router-router edge")
	}
	failAt := p.Cycle() + 200
	if _, err := fault.Attach(p, 5, fault.Fault{Kind: fault.LinkDown, Link: dead, From: failAt}); err != nil {
		t.Fatal(err)
	}

	traffic.NewSource(p.Sim, "src", p.NI(m.NI(0, 0, 0)), c.SrcChannel, traffic.SourceConfig{Rate: 0.1, Seed: 4})
	sinks := make([]*traffic.Sink, len(dsts))
	for i, d := range dsts {
		sinks[i] = traffic.NewSink(p.Sim, "sink", p.NI(d), c.DstChannels[d])
	}
	mon := core.NewHealthMonitor(p, 128)
	if _, ok := p.Sim.RunUntil(func() bool { return len(mon.Stalled()) > 0 }, 5000); !ok {
		t.Fatal("multicast stall never detected")
	}
	results, err := p.RepairStalled(mon, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Conn == nil {
		t.Fatalf("results = %+v", results)
	}
	nc := results[0].Conn
	for _, e := range nc.Tree.Edges {
		if e.Link == dead {
			t.Fatalf("repaired tree still uses dead edge %d", dead)
		}
	}
	// All destinations receive again.
	marks := make([]uint64, len(sinks))
	for i, k := range sinks {
		marks[i] = k.Received()
	}
	p.Run(2000)
	for i, k := range sinks {
		if k.Received() <= marks[i] {
			t.Fatalf("destination %d silent after repair", i)
		}
	}
}

func TestRepairFailsWhenNoAlternatePath(t *testing.T) {
	p := repairPlatform(t, 2, 2)
	m := p.Mesh
	c := openAwait(t, p, core.ConnectionSpec{Src: m.NI(0, 0, 0), Dst: m.NI(1, 0, 0), SlotsFwd: 1})
	dead := findLink(t, p, m.Router(0, 0), m.Router(1, 0))
	if !pathUses(c, dead) {
		t.Fatalf("path %v does not cross link %d", c.Fwd.Paths[0].Path, dead)
	}
	if _, err := fault.Attach(p, 3, fault.Fault{Kind: fault.LinkDown, Link: dead, From: p.Cycle() + 100}); err != nil {
		t.Fatal(err)
	}
	traffic.NewSource(p.Sim, "src", p.NI(m.NI(0, 0, 0)), c.SrcChannel, traffic.SourceConfig{Rate: 0.2, Seed: 1})
	traffic.NewSink(p.Sim, "sink", p.NI(m.NI(1, 0, 0)), c.DstChannel)
	mon := core.NewHealthMonitor(p, 128)
	if _, ok := p.Sim.RunUntil(func() bool { return len(mon.Stalled()) > 0 }, 5000); !ok {
		t.Fatal("stall never detected")
	}
	// Exclude the other entry into the destination's router too: repair
	// must report failure rather than pretend.
	p.ExcludeLinks(findLink(t, p, m.Router(1, 1), m.Router(1, 0)))
	if _, err := p.RepairStalled(mon, 20000); err == nil {
		t.Fatal("repair succeeded over a fully cut destination")
	}
}

// TestRepairStalledKeepsLaterRepairs: when one stalled connection cannot
// be re-admitted, every other one that could is still repaired, marked
// Open and returned, and the failure is reported beside them.
func TestRepairStalledKeepsLaterRepairs(t *testing.T) {
	p := repairPlatform(t, 3, 3)
	m := p.Mesh
	cut := openAwait(t, p, core.ConnectionSpec{Src: m.NI(0, 0, 0), Dst: m.NI(2, 0, 0), SlotsFwd: 1})
	moved := openAwait(t, p, core.ConnectionSpec{Src: m.NI(0, 1, 0), Dst: m.NI(2, 1, 0), SlotsFwd: 1})
	deadCut := findLink(t, p, m.Router(1, 0), m.Router(2, 0))
	deadMoved := findLink(t, p, m.Router(1, 1), m.Router(2, 1))
	if !pathUses(cut, deadCut) || !pathUses(moved, deadMoved) {
		t.Fatalf("paths %v and %v miss links %d and %d",
			cut.Fwd.Paths[0].Path, moved.Fwd.Paths[0].Path, deadCut, deadMoved)
	}
	for i, l := range []topology.LinkID{deadCut, deadMoved} {
		if _, err := fault.Attach(p, uint64(i+1), fault.Fault{Kind: fault.LinkDown, Link: l, From: p.Cycle() + 100}); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range []*core.Connection{cut, moved} {
		traffic.NewSource(p.Sim, fmt.Sprintf("src%d", i), p.NI(c.Spec.Src), c.SrcChannel, traffic.SourceConfig{Rate: 0.2, Seed: uint64(i + 1)})
		traffic.NewSink(p.Sim, fmt.Sprintf("sink%d", i), p.NI(c.Spec.Dst), c.DstChannel)
	}
	mon := core.NewHealthMonitor(p, 128)
	if _, ok := p.Sim.RunUntil(func() bool { return len(mon.Stalled()) == 2 }, 5000); !ok {
		t.Fatalf("stalled = %v, want both connections", mon.Stalled())
	}
	// Cut the other entry into the first destination's router: only the
	// first connection is beyond repair.
	p.ExcludeLinks(findLink(t, p, m.Router(2, 1), m.Router(2, 0)))

	results, err := p.RepairStalled(mon, 20000)
	if err == nil {
		t.Fatal("repair succeeded over a fully cut destination")
	}
	if len(results) != 1 || results[0].OldID != moved.ID {
		t.Fatalf("results = %v, want one repair of connection %d", results, moved.ID)
	}
	nc := results[0].Conn
	if nc.State != core.Open {
		t.Fatalf("repaired connection %d left in state %v", nc.ID, nc.State)
	}
	sink := p.NI(nc.Spec.Dst)
	before := sink.RxWords(nc.DstChannel)
	p.Run(2000)
	if sink.RxWords(nc.DstChannel) <= before {
		t.Fatal("repaired connection delivers nothing")
	}
}

// TestHealthPollDoesNotAllocate: the monitor's probe runs on every
// stepped cycle, so once it has seen a connection it must poll without
// allocating — a multicast's destinations included.
func TestHealthPollDoesNotAllocate(t *testing.T) {
	p := repairPlatform(t, 3, 3)
	core.NewHealthMonitor(p, 0)
	openAwait(t, p, core.ConnectionSpec{Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(2, 2, 0), SlotsFwd: 1})
	openAwait(t, p, core.ConnectionSpec{Src: p.Mesh.NI(1, 0, 0), Dsts: []topology.NodeID{p.Mesh.NI(0, 2, 0), p.Mesh.NI(2, 1, 0)}, SlotsFwd: 1})
	p.Run(1) // the first poll after set-up records the new connections
	if n := testing.AllocsPerRun(10, func() { p.Run(100) }); n != 0 {
		t.Fatalf("100 monitored cycles allocate %v times, want 0", n)
	}
}
