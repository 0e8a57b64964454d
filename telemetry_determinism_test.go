package daelite

// The telemetry determinism soak: the full observability surface — every
// counter, gauge, histogram, series, span and event an exporter can see —
// must be bit-identical from run to run. The test renders both
// exporters (Prometheus text and NDJSON) after a seeded chaos soak with
// traffic, link failures, stall detection and online repair, and
// compares the bytes of two runs. It is the observability
// counterpart of TestParallelChaosSoakDeterministic: not just the
// simulated hardware but everything telemetry reports about it is a pure
// function of the seed.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/sim"
	"daelite/internal/stats"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// runTelemetrySoak runs the seeded chaos soak with a telemetry registry
// attached and every instrumented layer publishing into it — platform
// harvest, link monitor, fault injector, health events, repair spans —
// and returns the rendered Prometheus and NDJSON exports.
func runTelemetrySoak(t *testing.T, seed uint64, cycles int) (string, string) {
	t.Helper()
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1}, core.DefaultParams(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	p.AttachTelemetry(reg, 8)
	stats.NewMonitor(p)
	rng := sim.NewRNG(seed)

	for opened, tries := 0, 0; opened < 5 && tries < 100; tries++ {
		s := p.Mesh.AllNIs[rng.Intn(len(p.Mesh.AllNIs))]
		d := p.Mesh.AllNIs[rng.Intn(len(p.Mesh.AllNIs))]
		if s == d {
			continue
		}
		c, err := p.Open(core.ConnectionSpec{Src: s, Dst: d, SlotsFwd: 1 + rng.Intn(2)})
		if err != nil {
			continue
		}
		if err := p.AwaitOpen(c, 1_000_000); err != nil {
			t.Fatal(err)
		}
		traffic.NewSource(p.Sim, fmt.Sprintf("src%d", c.ID), p.NI(s), c.SrcChannel,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: 0.04 + 0.02*float64(rng.Intn(3)), Seed: rng.Uint64()})
		traffic.NewSink(p.Sim, fmt.Sprintf("sink%d", c.ID), p.NI(d), c.DstChannel)
		opened++
	}

	sites := fault.PickLinks(rng, fault.RouterLinks(p), 2)
	var faults []fault.Fault
	start := p.Cycle()
	for i, l := range sites {
		at := start + uint64((i+1)*cycles/(len(sites)+1))
		faults = append(faults, fault.Fault{Kind: fault.LinkDown, Link: l, From: at})
	}
	inj, err := fault.Attach(p, rng.Uint64(), faults...)
	if err != nil {
		t.Fatal(err)
	}
	inj.AttachTelemetry(reg)

	mon := core.NewHealthMonitor(p, 256)
	end := start + uint64(cycles)
	for p.Cycle() < end {
		step := uint64(512)
		if rest := end - p.Cycle(); rest < step {
			step = rest
		}
		p.Run(step)
		if len(mon.Stalled()) == 0 {
			continue
		}
		if _, err := p.RepairStalled(mon, 1_000_000); err != nil {
			t.Fatalf("repair at cycle %d: %v", p.Cycle(), err)
		}
	}

	p.FlushTelemetry()
	var prom, nd strings.Builder
	if err := telemetry.WritePrometheus(&prom, reg); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteNDJSON(&nd, reg, p.Cycle()); err != nil {
		t.Fatal(err)
	}
	return prom.String(), nd.String()
}

// TestTelemetryExportsDeterministic: the rendered exports — every
// metric, span and event — are byte-identical across two runs of the
// same seed.
func TestTelemetryExportsDeterministic(t *testing.T) {
	const seed, cycles = 42, 12000
	promRef, ndRef := runTelemetrySoak(t, seed, cycles)
	// The soak must exercise the whole surface, or identical exports
	// prove nothing.
	for _, want := range []string{
		"daelite_ni_injected_words_total",
		"daelite_router_output_busy_cycles_total",
		"daelite_link_payload_cycles_total",
		"daelite_fault_flits_killed_total",
		`daelite_config_spans_total{op="setup"}`,
		`daelite_config_spans_total{op="repair"}`,
		`daelite_events_total{kind="stall"}`,
		`daelite_events_total{kind="repair"}`,
		`daelite_events_total{kind="fault"}`,
	} {
		if !strings.Contains(promRef, want) {
			t.Fatalf("soak export missing %q", want)
		}
	}
	if !strings.Contains(ndRef, `"record":"span"`) || !strings.Contains(ndRef, `"record":"event"`) {
		t.Fatal("NDJSON export missing spans or events")
	}
	prom, nd := runTelemetrySoak(t, seed, cycles)
	if prom != promRef {
		t.Errorf("Prometheus export diverged between two runs (%d vs %d bytes)", len(prom), len(promRef))
	}
	if nd != ndRef {
		t.Errorf("NDJSON export diverged between two runs (%d vs %d bytes)", len(nd), len(ndRef))
	}
}

// TestTelemetryOverheadBounded checks the cost contract coarsely: a run
// with the registry attached may not be drastically slower than the same
// run without it. The precise <=5% gate lives in
// BenchmarkPlatformCycle[Telemetry] via daelite-benchdiff; this test only
// catches order-of-magnitude regressions (an accidental per-cycle
// allocation, say), so the threshold is deliberately generous.
func TestTelemetryOverheadBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead measurement in -short mode")
	}
	const cycles = 20000
	run := func(attach bool) float64 {
		p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1}, core.DefaultParams(), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			p.AttachTelemetry(telemetry.NewRegistry(), 0)
		}
		c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(3, 3, 0), SlotsFwd: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.AwaitOpen(c, 100000); err != nil {
			t.Fatal(err)
		}
		traffic.NewSource(p.Sim, "src", p.NI(c.Spec.Src), c.SrcChannel,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: 1.0, Seed: 1})
		traffic.NewSink(p.Sim, "sink", p.NI(c.Spec.Dst), c.DstChannel)
		p.Run(500) // warm-up
		best := 1e18
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			p.Run(cycles)
			if s := time.Since(start).Seconds(); s < best {
				best = s
			}
		}
		return best
	}
	off := run(false)
	on := run(true)
	ratio := on / off
	t.Logf("4x4 mesh, %d cycles: telemetry off %.4fs, on %.4fs (%.2fx)", cycles, off, on, ratio)
	if ratio > 2.0 {
		t.Errorf("telemetry overhead %.2fx > 2x — cost contract broken", ratio)
	}
}
