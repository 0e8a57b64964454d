package alloc

import (
	"slices"
	"testing"

	"daelite/internal/topology"
)

func TestAllocateUseCaseAtomic(t *testing.T) {
	m := mesh(t, 3, 3)
	a := New(m.Graph, 8)
	// A feasible use-case: three unicasts and one multicast.
	uc, err := a.AllocateUseCase([]Request{
		{Src: m.NI(0, 0, 0), Dst: m.NI(2, 2, 0), Slots: 2},
		{Src: m.NI(1, 0, 0), Dst: m.NI(1, 2, 0), Slots: 2},
		{Src: m.NI(2, 0, 0), Dst: m.NI(0, 2, 0), Slots: 2},
		{Src: m.NI(0, 1, 0), Dsts: []topology.NodeID{m.NI(2, 1, 0), m.NI(1, 1, 0)}, Slots: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(uc.Unicasts) != 3 || len(uc.Multicasts) != 1 {
		t.Fatalf("allocation shape: %d/%d", len(uc.Unicasts), len(uc.Multicasts))
	}
	if err := Verify(m.Graph, 8, uc.Unicasts, uc.Multicasts); err != nil {
		t.Fatal(err)
	}
	used := a.TotalSlotsUsed()
	if used == 0 {
		t.Fatal("nothing committed")
	}

	// An infeasible use-case must leave the allocator untouched.
	_, err = a.AllocateUseCase([]Request{
		{Src: m.NI(0, 0, 0), Dst: m.NI(1, 0, 0), Slots: 2},
		{Src: m.NI(0, 0, 0), Dst: m.NI(0, 1, 0), Slots: 8}, // cannot fit: NI link
	})
	if err == nil {
		t.Fatal("infeasible use-case accepted")
	}
	if got := a.TotalSlotsUsed(); got != used {
		t.Fatalf("failed use-case leaked occupancy: %d -> %d", used, got)
	}

	// Release restores everything.
	a.ReleaseUseCase(uc)
	if a.TotalSlotsUsed() != 0 {
		t.Fatalf("release leaked: %d", a.TotalSlotsUsed())
	}
}

func TestAllocateUseCaseValidation(t *testing.T) {
	m := mesh(t, 2, 2)
	a := New(m.Graph, 8)
	if _, err := a.AllocateUseCase(nil); err == nil {
		t.Fatal("empty use-case accepted")
	}
}

// TestUseCaseSwitchPlanning models the paper's multi-use-case scenario:
// two use-cases that each fit alone, whose union does not; switching
// (release A, allocate B) always succeeds.
func TestUseCaseSwitchPlanning(t *testing.T) {
	m := mesh(t, 2, 2)
	a := New(m.Graph, 8)
	ucA := []Request{{Src: m.NI(0, 0, 0), Dst: m.NI(1, 1, 0), Slots: 6}}
	ucB := []Request{{Src: m.NI(0, 0, 0), Dst: m.NI(1, 0, 0), Slots: 6}}

	allocA, err := a.AllocateUseCase(ucA)
	if err != nil {
		t.Fatal(err)
	}
	// Union infeasible (source NI has 8 slots, 6+6 > 8).
	if _, err := a.AllocateUseCase(ucB); err == nil {
		t.Fatal("union of use-cases fit unexpectedly")
	}
	// Switch: release A, then B fits.
	a.ReleaseUseCase(allocA)
	if _, err := a.AllocateUseCase(ucB); err != nil {
		t.Fatalf("use-case B failed after switch: %v", err)
	}
}

// TestMulticastAttachDetachChurn grows and shrinks trees randomly; the
// global contention-free invariant must hold after every operation and
// occupancy must be exact after teardown.
func TestMulticastAttachDetachChurn(t *testing.T) {
	m := mesh(t, 3, 3)
	rng := newChurnRNG()
	a := New(m.Graph, 16)
	src := m.NI(1, 1, 0)
	others := make([]topology.NodeID, 0, len(m.AllNIs)-1)
	for _, n := range m.AllNIs {
		if n != src {
			others = append(others, n)
		}
	}
	mc, err := a.Multicast(src, []topology.NodeID{others[0]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	attached := map[topology.NodeID]bool{others[0]: true}
	for step := 0; step < 120; step++ {
		d := others[rng.Intn(len(others))]
		if attached[d] {
			if len(mc.Dsts) > 1 {
				if _, err := a.MulticastDetach(mc, d); err != nil {
					t.Fatalf("step %d detach: %v", step, err)
				}
				delete(attached, d)
			}
		} else {
			if _, err := a.MulticastAttach(mc, d); err == nil {
				attached[d] = true
			}
		}
		if err := Verify(m.Graph, 16, nil, []*Multicast{mc}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// DestDepth consistency: every destination reachable via edges.
		if len(mc.Dsts) != len(attached) {
			t.Fatalf("step %d: tree tracks %d dsts, test %d", step, len(mc.Dsts), len(attached))
		}
	}
	a.ReleaseMulticast(mc)
	if a.TotalSlotsUsed() != 0 {
		t.Fatalf("occupancy leaked: %d", a.TotalSlotsUsed())
	}
}

func newChurnRNG() *churnRNG { return &churnRNG{state: 0xDADA} }

type churnRNG struct{ state uint64 }

func (r *churnRNG) Intn(n int) int {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return int(r.state % uint64(n))
}

// TestMulticastAttachKeepsATree grafts every destination it can onto
// trees over meshes with pipelined links, where a shortest path from the
// best graft point can run into another tree node. No tree node may
// gain a second incoming edge, and detaching a destination right after
// attaching it must restore the tree and the occupancy exactly.
func TestMulticastAttachKeepsATree(t *testing.T) {
	for nis := 1; nis <= 2; nis++ {
		m, err := topology.NewMesh(topology.MeshSpec{Width: 3, Height: 3, NIsPerRouter: nis})
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range m.Links() {
			if m.Node(l.From).Kind == topology.Router && m.Node(l.To).Kind == topology.Router && i%3 == 0 {
				m.Graph.SetPipeline(l.ID, 1+i%2)
			}
		}
		for _, src := range m.AllNIs {
			for _, first := range m.AllNIs {
				if first == src {
					continue
				}
				a := New(m.Graph, 16)
				mc, err := a.Multicast(src, []topology.NodeID{first}, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range m.AllNIs {
					if d == src || d == first {
						continue
					}
					edges, used := append([]TreeEdge(nil), mc.Edges...), a.TotalSlotsUsed()
					if _, err := a.MulticastAttach(mc, d); err != nil {
						continue
					}
					in := map[topology.NodeID]int{}
					for _, e := range mc.Edges {
						if in[m.Link(e.Link).To]++; in[m.Link(e.Link).To] > 1 {
							t.Fatalf("nis %d, src %d: grafting %d gave node %d a second input: %v", nis, src, d, m.Link(e.Link).To, mc.Edges)
						}
					}
					if _, err := a.MulticastDetach(mc, d); err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(mc.Edges, edges) || a.TotalSlotsUsed() != used {
						t.Fatalf("nis %d, src %d: attach+detach of %d moved edges %v -> %v, slots %d -> %d", nis, src, d, edges, mc.Edges, used, a.TotalSlotsUsed())
					}
					if _, err := a.MulticastAttach(mc, d); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}
