package alloc

import (
	"fmt"
	"testing"

	"daelite/internal/sim"
	"daelite/internal/topology"
)

func batchMesh(t *testing.T) *topology.Mesh {
	t.Helper()
	m, err := topology.NewMesh(topology.MeshSpec{Width: 8, Height: 8, NIsPerRouter: 1, Wrap: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// batchFingerprint folds one batch run's full outcome — per-item success,
// paths and injection slots — into a comparable string.
func batchFingerprint(results []BatchResult) string {
	s := ""
	for i, r := range results {
		if r.Err != nil {
			s += fmt.Sprintf("%d:ERR;", i)
			continue
		}
		s += fmt.Sprintf("%d:", i)
		for _, u := range r.Alloc.Unicasts {
			for _, pa := range u.Paths {
				s += fmt.Sprintf("%v@%x,", pa.Path, pa.InjectSlots.Bits)
			}
		}
		for _, mc := range r.Alloc.Multicasts {
			s += fmt.Sprintf("mc%v@%x,", mc.Edges, mc.InjectSlots.Bits)
		}
		s += ";"
	}
	return s
}

// mixedBatch builds a deliberately contention-heavy item list: items
// share sources and destinations in one corner of the torus, and mix
// Spread, Multipath and MaxDetour 0–2 unicast pairs with multicast trees.
// With detours the forward and reverse paths of one item can share a
// link, so whether an item fits is not monotone in the occupancy.
func mixedBatch(m *topology.Mesh, rng *sim.RNG, n int) []BatchItem {
	items := make([]BatchItem, n)
	for i := range items {
		sx, sy := rng.Intn(4), rng.Intn(4) // cramped corner: high contention
		dx, dy := (sx+1)%4, (sy+1+rng.Intn(2))%4
		src, dst := m.NI(sx, sy, 0), m.NI(dx, dy, 0)
		if i%5 == 4 {
			d2 := m.NI((dx+1)%4, dy, 0)
			if d2 != src && d2 != dst {
				items[i] = BatchItem{Reqs: []Request{{Src: src, Dsts: []topology.NodeID{dst, d2}, Slots: 1}}}
				continue
			}
		}
		opts := Options{Spread: rng.Intn(3) == 0, Multipath: rng.Intn(2) == 0, MaxDetour: rng.Intn(3)}
		items[i] = BatchItem{Reqs: []Request{
			{Src: src, Dst: dst, Slots: 1 + rng.Intn(4), Opts: opts},
			{Src: dst, Dst: src, Slots: 1, Opts: opts},
		}}
	}
	return items
}

// TestBatchMatchesSequentialAllocation checks Batch against the
// single-item path: admitting items one at a time through AllocateUseCase
// must produce the same allocations, item by item and round by round, as
// Batch calls over the same stream. Seeds 333, 689, 817 and 1483 each
// carry a multipath item that fits only after earlier items of its batch
// are placed, which an engine evaluating every item against the batch's
// starting occupancy refuses.
func TestBatchMatchesSequentialAllocation(t *testing.T) {
	m := batchMesh(t)
	for _, seed := range []uint64{7, 333, 689, 817, 1483} {
		rng := sim.NewRNG(seed)
		ab, as := New(m.Graph, 8), New(m.Graph, 8)
		for round := 0; round < 4; round++ {
			items := mixedBatch(m, rng, 24)
			results := ab.Batch(items, 4)
			for i, it := range items {
				uc, err := as.AllocateUseCase(it.Reqs)
				seq := batchFingerprint([]BatchResult{{Alloc: uc, Err: err}})
				bat := batchFingerprint([]BatchResult{results[i]})
				if seq != bat {
					t.Fatalf("seed %d round %d item %d differs:\n seq   %s (%v)\n batch %s (%v)",
						seed, round, i, seq, err, bat, results[i].Err)
				}
			}
			if ab.Fingerprint() != as.Fingerprint() {
				t.Fatalf("seed %d round %d: occupancy differs between batch and sequential", seed, round)
			}
		}
	}
}

// TestBatchVerifies runs a contention-heavy batch and checks the committed
// allocations uphold the global contention-free invariant.
func TestBatchVerifies(t *testing.T) {
	m := batchMesh(t)
	a := New(m.Graph, 8)
	rng := sim.NewRNG(3)
	var liveU []*Unicast
	var liveM []*Multicast
	for round := 0; round < 3; round++ {
		results := a.Batch(mixedBatch(m, rng, 24), 0)
		for _, r := range results {
			if r.Err != nil {
				continue
			}
			liveU = append(liveU, r.Alloc.Unicasts...)
			liveM = append(liveM, r.Alloc.Multicasts...)
		}
	}
	if len(liveU) == 0 {
		t.Fatal("no batch item committed")
	}
	if err := Verify(m.Graph, 8, liveU, liveM); err != nil {
		t.Fatalf("batch-committed allocations violate invariant: %v", err)
	}
}

// TestBatchEmpty covers the trivial edges: no items, and a nil-request item.
func TestBatchEmpty(t *testing.T) {
	m := batchMesh(t)
	a := New(m.Graph, 8)
	if results := a.Batch(nil, 4); len(results) != 0 {
		t.Fatalf("empty batch returned %d results", len(results))
	}
	results := a.Batch([]BatchItem{{}}, 1)
	if results[0].Err == nil {
		t.Fatal("empty item did not fail")
	}
}
