package daelite

// The benchmark harness is two loops over the tables in
// internal/experiments: every golden experiment of the Registry (see
// DESIGN.md's experiment index and EXPERIMENTS.md for the recorded
// outputs) and every gated micro-benchmark of Micro. `cmd/daelite-bench`
// prints the full tables and times the same bodies for the perf gate.
//
// Run with: go test -bench=. -benchmem

import (
	"testing"

	"daelite/internal/core"
	"daelite/internal/experiments"
	"daelite/internal/topology"
)

// BenchmarkExperiments regenerates each experiment and reports its
// headline metrics, each under its metric key as the unit. The
// wall-clock experiments are themselves timings of other code, so they
// are left to `daelite-bench -experiment` and `-json`.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Select("") {
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

// BenchmarkMicro times the gated micro-benchmarks of the core machinery;
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
