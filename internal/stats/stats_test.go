package stats

import (
	"math"
	"strings"
	"testing"

	"daelite/internal/core"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

func TestMonitorMatchesReservation(t *testing.T) {
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 2, Height: 2, NIsPerRouter: 1}, core.DefaultParams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(1, 1, 0), SlotsFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 10000); err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(p)

	// Saturate: the source-link utilization must converge to exactly the
	// reserved share, 2/8 = 25%.
	traffic.NewSource(p.Sim, "src", p.NI(c.Spec.Src), c.SrcChannel,
		traffic.SourceConfig{Pattern: traffic.CBR, Rate: 1.0, Seed: 1})
	sink := traffic.NewSink(p.Sim, "sink", p.NI(c.Spec.Dst), c.DstChannel)
	_ = sink
	p.Run(4000)

	srcLink := p.Mesh.Out(c.Spec.Src)[0]
	s := m.Sample(srcLink)
	if s == nil {
		t.Fatal("source link not monitored")
	}
	if got := s.Utilization(); math.Abs(got-0.25) > 0.02 {
		t.Fatalf("source link utilization = %.3f, want ~0.25", got)
	}
	// The reverse channel carries credit-only cycles.
	revLink, _ := p.Mesh.Reverse(srcLink)
	// Find the link INTO the source NI (credits arrive there).
	rs := m.Sample(revLink)
	if rs.CreditOnly() == 0 {
		t.Fatal("no credit-only activity on the return link")
	}

	// Busiest ordering and report rendering.
	top := m.Busiest(3)
	if len(top) != 3 {
		t.Fatalf("busiest returned %d", len(top))
	}
	if top[0].Utilization() < top[1].Utilization() {
		t.Fatal("busiest not sorted")
	}
	if m.TotalPayloadCycles() == 0 {
		t.Fatal("no payload observed")
	}
	rep := m.Report("util")
	if !strings.Contains(rep, "NI00->R00") {
		t.Fatalf("report missing source link:\n%s", rep)
	}
}

func TestMonitorIdlePlatform(t *testing.T) {
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 2, Height: 2, NIsPerRouter: 1}, core.DefaultParams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(p)
	p.Run(200)
	if m.TotalPayloadCycles() != 0 {
		t.Fatal("idle platform produced payload")
	}
	for _, s := range m.Busiest(0) {
		if s.Utilization() != 0 {
			t.Fatal("idle link shows utilization")
		}
		if s.Cycles() != 200 {
			t.Fatalf("sample cycles = %d", s.Cycles())
		}
	}
}

// TestMonitorPublishesToRegistry checks the thin-view contract: with a
// registry attached to the platform, the monitor's link counters and the
// windowed utilization series are registry metrics an exporter can see.
func TestMonitorPublishesToRegistry(t *testing.T) {
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 2, Height: 2, NIsPerRouter: 1}, core.DefaultParams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	p.AttachTelemetry(reg, 4)
	c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(1, 1, 0), SlotsFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 10000); err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(p)
	if m.Registry() != reg {
		t.Fatal("monitor did not adopt the platform registry")
	}
	traffic.NewSource(p.Sim, "src", p.NI(c.Spec.Src), c.SrcChannel,
		traffic.SourceConfig{Pattern: traffic.CBR, Rate: 1.0, Seed: 3})
	traffic.NewSink(p.Sim, "sink", p.NI(c.Spec.Dst), c.DstChannel)
	p.Run(2000)

	srcLink := p.Mesh.Out(c.Spec.Src)[0]
	s := m.Sample(srcLink)
	got := reg.Counter("link_payload_cycles_total", telemetry.L("link", s.Name)).Value()
	if got == 0 || got != s.Valid() {
		t.Fatalf("registry counter = %d, sample = %d", got, s.Valid())
	}
	series := reg.Series("link_utilization", 0, telemetry.L("link", s.Name)).Samples()
	if len(series) == 0 {
		t.Fatal("no utilization series samples")
	}
	last := series[len(series)-1]
	if last.Value <= 0 || last.Value > 1 {
		t.Fatalf("utilization sample out of range: %+v", last)
	}

	// Without an attached registry the monitor still works, privately.
	p2, err := core.NewMeshPlatform(topology.MeshSpec{Width: 2, Height: 2, NIsPerRouter: 1}, core.DefaultParams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMonitor(p2)
	if m2.Registry() == nil {
		t.Fatal("private registry missing")
	}
	p2.Run(100)
	if m2.TotalPayloadCycles() != 0 {
		t.Fatal("idle platform produced payload")
	}
}
