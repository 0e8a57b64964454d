package daelite_test

import (
	"strings"
	"testing"

	"daelite"
	"daelite/internal/core"
	"daelite/internal/topology"
)

// TestToolkitFacade exercises the full public surface end to end: build,
// dimension, open, generate traffic, check guarantees, monitor links.
func TestToolkitFacade(t *testing.T) {
	p, err := daelite.NewMeshPlatform(
		daelite.MeshSpec{Width: 3, Height: 3, NIsPerRouter: 1},
		daelite.DefaultParams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Dimension a requirement set on the same topology shape.
	res, err := daelite.Dimension(p.Mesh, []daelite.Requirement{
		{Name: "a", Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(2, 2, 0), Bandwidth: 0.25, MaxLatency: 40},
	}, daelite.DimensionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wheel != 8 {
		t.Fatalf("dimensioned wheel = %d", res.Wheel)
	}

	mon := daelite.NewLinkMonitor(p)
	rec := daelite.NewWaveRecorder(p)
	_ = rec

	conn, err := p.Open(daelite.ConnectionSpec{
		Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(2, 2, 0),
		SlotsFwd: res.Assignments[0].Slots, Spread: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(conn, 100_000); err != nil {
		t.Fatal(err)
	}
	g := daelite.GuaranteesOf(p, conn)
	if g.Bandwidth < 0.25 || g.WorstCaseLatency <= 0 {
		t.Fatalf("guarantees: %+v", g)
	}
	if g.Server.Rho != g.Bandwidth {
		t.Fatal("LR server inconsistent")
	}

	src := daelite.NewSource(p, "src", conn.Spec.Src, conn.SrcChannel,
		daelite.SourceConfig{Pattern: daelite.CBR, Rate: 0.1, Limit: 100, Seed: 1})
	sink := daelite.NewSink(p, "sink", conn.Spec.Dst, conn.DstChannel)
	p.Sim.RunUntil(func() bool { return sink.Received() >= 100 }, 1_000_000)
	if sink.Received() != 100 {
		t.Fatalf("received %d (src sent %d)", sink.Received(), src.Sent())
	}
	if sink.TotalStats().MaxLat > uint64(g.WorstCaseLatency)+2 {
		t.Fatalf("guarantee violated: %d > %d", sink.TotalStats().MaxLat, g.WorstCaseLatency)
	}
	if mon.TotalPayloadCycles() == 0 {
		t.Fatal("monitor saw nothing")
	}

	// Spec parsing through the facade.
	sp, err := daelite.ParseSpec(strings.NewReader(`{
	  "mesh": {"width": 2, "height": 2}, "host": {"x": 0, "y": 0},
	  "connections": [{"src": {"x":0,"y":0}, "dst": {"x":1,"y":1}, "slotsFwd": 1}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Connections) != 1 {
		t.Fatal("spec facade broken")
	}
}

// TestGuaranteesBoundPipelinedLinks runs a low-rate CBR stream across
// A6's 3x1 mesh with every router-to-router link pipelined, and checks
// that no word is slower than GuaranteesOf promises. Each pipeline stage
// costs one slot of traversal, so a bound that counts links instead of
// slot advance is broken here.
func TestGuaranteesBoundPipelinedLinks(t *testing.T) {
	for _, stages := range []int{2, 4} {
		m, err := topology.NewMesh(topology.MeshSpec{Width: 3, Height: 1, NIsPerRouter: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range m.Links() {
			if m.Node(l.From).Kind == topology.Router && m.Node(l.To).Kind == topology.Router {
				m.Graph.SetPipeline(l.ID, stages)
			}
		}
		params := daelite.DefaultParams()
		params.Wheel = 16
		p, err := core.NewPlatform(m, params, m.NI(0, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.Open(daelite.ConnectionSpec{Src: m.NI(0, 0, 0), Dst: m.NI(2, 0, 0), SlotsFwd: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AwaitOpen(c, 100_000); err != nil {
			t.Fatal(err)
		}
		g := daelite.GuaranteesOf(p, c)
		daelite.NewSource(p, "src", c.Spec.Src, c.SrcChannel,
			daelite.SourceConfig{Pattern: daelite.CBR, Rate: 0.02, Limit: 100, Seed: 1})
		sink := daelite.NewSink(p, "sink", c.Spec.Dst, c.DstChannel)
		p.Sim.RunUntil(func() bool { return sink.Received() >= 100 }, 1_000_000)
		if sink.Received() != 100 {
			t.Fatalf("%d stages: received %d of 100", stages, sink.Received())
		}
		if worst := sink.TotalStats().MaxLat; worst > uint64(g.WorstCaseLatency) {
			t.Errorf("%d stages: measured worst %d > guaranteed %d", stages, worst, g.WorstCaseLatency)
		}
	}
}
