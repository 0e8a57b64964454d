package daelite

// The benchmark harness is two loops over the tables in
// internal/experiments: every experiment of the Registry (see
// DESIGN.md's experiment index and EXPERIMENTS.md for the recorded
// outputs) and every micro-benchmark of Micro. `daelite bench` prints
// the full tables; host-time performance is measured by benchmark/.
//
// Run with: go test -bench=. -benchmem

import (
	"testing"
	"time"

	"daelite/internal/core"
	"daelite/internal/experiments"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// BenchmarkExperiments regenerates each experiment and reports its
// headline metrics, each under its metric key as the unit.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.ID, func(b *testing.B) {
			var last *experiments.Result
			for i := 0; i < b.N; i++ {
				r, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			for _, key := range e.Headline {
				b.ReportMetric(last.Metrics[key], key)
			}
		})
	}
}

// BenchmarkMicro times the micro-benchmarks of the core machinery;
// ops that advance simulated cycles also report cycles/sec.
func BenchmarkMicro(b *testing.B) {
	for _, m := range experiments.Micro {
		b.Run(m.Name, func(b *testing.B) {
			op, cyclesPerOp, cleanup, err := m.Build()
			if err != nil {
				b.Fatal(err)
			}
			defer cleanup()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			if cyclesPerOp > 0 {
				b.ReportMetric(cyclesPerOp*float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
			}
		})
	}
}

// TestMicroOpsRun builds every Micro entry, runs its op once and cleans
// up, so a broken benchmark body fails `go test ./...` and not only the
// CI bench job.
func TestMicroOpsRun(t *testing.T) {
	for _, m := range experiments.Micro {
		t.Run(m.Name, func(t *testing.T) {
			op, _, cleanup, err := m.Build()
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			op()
		})
	}
}

// BenchmarkConnectionOpenClose measures the host-side cost of a full
// connection lifecycle including simulation until settled.
func BenchmarkConnectionOpenClose(b *testing.B) {
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 3, Height: 3, NIsPerRouter: 1}, core.DefaultParams(), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(1, 0, 0), Dst: p.Mesh.NI(2, 2, 0), SlotsFwd: 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.AwaitOpen(c, 100000); err != nil {
			b.Fatal(err)
		}
		if err := p.Close(c); err != nil {
			b.Fatal(err)
		}
		if _, err := p.CompleteConfig(100000); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTelemetryOverheadBounded checks the cost contract coarsely: a run
// with the registry attached may not be drastically slower than the same
// run without it. It catches only order-of-magnitude regressions (an
// accidental per-cycle allocation, say), so the threshold is deliberately
// generous; the measured number is the `telemetry.attach_overhead_ratio`
// that benchmark/ reports.
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
