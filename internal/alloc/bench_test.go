package alloc

import (
	"testing"

	"daelite/internal/sim"
	"daelite/internal/topology"
)

// The allocation flow runs at design time in the paper, but [30] (cited in
// Section III) shows online allocation is feasible; these benchmarks
// measure the incremental cost of one allocation decision — the quantity
// that matters for run-time use.

func benchMesh(b *testing.B, w, h int) *topology.Mesh {
	b.Helper()
	m, err := topology.NewMesh(topology.MeshSpec{Width: w, Height: h, NIsPerRouter: 1})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkUnicastAllocation(b *testing.B) {
	m := benchMesh(b, 4, 4)
	rng := sim.NewRNG(1)
	a := New(m.Graph, 32)
	var live []*Unicast
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := m.AllNIs[rng.Intn(len(m.AllNIs))]
		dst := m.AllNIs[rng.Intn(len(m.AllNIs))]
		if src == dst {
			continue
		}
		u, err := a.Unicast(src, dst, 1, Options{})
		if err != nil {
			// Free everything and keep allocating (steady churn).
			for _, l := range live {
				a.ReleaseUnicast(l)
			}
			live = live[:0]
			continue
		}
		live = append(live, u)
	}
}

func BenchmarkMultipathAllocation(b *testing.B) {
	m := benchMesh(b, 4, 4)
	rng := sim.NewRNG(2)
	a := New(m.Graph, 32)
	var live []*Unicast
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := m.AllNIs[rng.Intn(len(m.AllNIs))]
		dst := m.AllNIs[rng.Intn(len(m.AllNIs))]
		if src == dst {
			continue
		}
		u, err := a.Unicast(src, dst, 3, Options{Multipath: true, MaxDetour: 2})
		if err != nil {
			for _, l := range live {
				a.ReleaseUnicast(l)
			}
			live = live[:0]
			continue
		}
		live = append(live, u)
	}
}

func BenchmarkMulticastAllocation(b *testing.B) {
	m := benchMesh(b, 4, 4)
	rng := sim.NewRNG(3)
	a := New(m.Graph, 32)
	var live []*Multicast
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := m.AllNIs[rng.Intn(len(m.AllNIs))]
		var dsts []topology.NodeID
		for len(dsts) < 3 {
			d := m.AllNIs[rng.Intn(len(m.AllNIs))]
			if d != src {
				dsts = append(dsts, d)
			}
		}
		mc, err := a.Multicast(src, dsts, 1)
		if err != nil {
			for _, l := range live {
				a.ReleaseMulticast(l)
			}
			live = live[:0]
			continue
		}
		live = append(live, mc)
	}
}

func BenchmarkCandidateSlots(b *testing.B) {
	m := benchMesh(b, 4, 4)
	a := New(m.Graph, 32)
	path := m.Graph.ShortestPath(m.NI(0, 0, 0), m.NI(3, 3, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.CandidateSlots(path)
	}
}
