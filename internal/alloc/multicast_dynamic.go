package alloc

import (
	"fmt"
	"sort"

	"daelite/internal/slots"
	"daelite/internal/topology"
)

// MulticastAttach grows a live multicast tree by one destination, using
// the same injection slots: a new branch is grafted at the nearest tree
// node whose onward links are free in the branch's rotated slots. The
// mechanism is exactly the paper's "partial paths ... used to set up
// broadcast or multicast trees" — the existing tree keeps running while
// the branch is added. It returns the new edges, ordered from the graft
// point toward the destination.
func (a *Allocator) MulticastAttach(m *Multicast, dst topology.NodeID) ([]TreeEdge, error) {
	if dst == m.Src {
		return nil, fmt.Errorf("alloc: destination equals source")
	}
	if _, ok := m.DestDepth[dst]; ok {
		return nil, fmt.Errorf("alloc: destination %d already in the tree", dst)
	}
	// Reconstruct tree node depths from the edges.
	nodeDepth := map[topology.NodeID]int{m.Src: 0}
	for changed := true; changed; {
		changed = false
		for _, e := range m.Edges {
			from, to := a.g.Link(e.Link).From, a.g.Link(e.Link).To
			if d, ok := nodeDepth[from]; ok {
				if _, seen := nodeDepth[to]; !seen {
					nodeDepth[to] = d + a.g.SlotAdvance(e.Link)
					changed = true
				}
			}
		}
	}

	// Candidate graft points in deterministic order.
	var nodes []topology.NodeID
	for n := range nodeDepth {
		if a.g.Node(n).Kind == topology.Router || n == m.Src {
			nodes = append(nodes, n)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	type candidate struct {
		from  topology.NodeID
		path  topology.Path
		total int
	}
	var best *candidate
	for _, from := range nodes {
		p := a.g.ShortestPath(from, dst)
		if p == nil {
			continue
		}
		total := nodeDepth[from] + a.g.PathSlotAdvance(p)
		if best == nil || total < best.total {
			best = &candidate{from: from, path: p, total: total}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("alloc: destination %d unreachable from the tree", dst)
	}

	// A shortest path from the graft point can run into another tree
	// node; the branch grafts at the last one instead, so no tree node
	// gains a second input: the tree stays a tree and MulticastDetach
	// prunes exactly the edges added here. Feasibility: every new link
	// free in the branch's rotated slots, destination RX table free at
	// the final depth.
	from, path := best.from, best.path
	for k, l := range path {
		if _, ok := nodeDepth[a.g.Link(l).To]; ok {
			from, path = a.g.Link(l).To, best.path[k+1:]
		}
	}
	depth := nodeDepth[from]
	var newEdges []TreeEdge
	for _, l := range path {
		occ := a.LinkOccupancy(l)
		if occ.Overlaps(m.InjectSlots.RotateUp(depth)) {
			return nil, ErrNoCapacity{Want: m.InjectSlots.Count(), Got: 0}
		}
		newEdges = append(newEdges, TreeEdge{Link: l, Depth: depth})
		depth += a.g.SlotAdvance(l)
	}
	rxFree := slots.Mask{Bits: ^a.rxBits(dst) & wheelBits(a.wheel), Size: a.wheel}
	if m.InjectSlots.RotateUp(depth).Bits&^rxFree.Bits != 0 {
		return nil, ErrNoCapacity{Want: m.InjectSlots.Count(), Got: 0}
	}

	// Commit.
	for _, e := range newEdges {
		a.setLinkBits(e.Link, a.linkBits(e.Link)|m.InjectSlots.RotateUp(e.Depth).Bits)
	}
	a.setRXBits(dst, a.rxBits(dst)|m.InjectSlots.RotateUp(depth).Bits)
	m.Edges = append(m.Edges, newEdges...)
	m.Dsts = append(m.Dsts, dst)
	m.DestDepth[dst] = depth
	return newEdges, nil
}

// MulticastDetach removes one destination from a live tree, pruning the
// edges no other destination uses, and returns the pruned edges ordered
// from the destination upward (the order a tear-down packet walks them).
func (a *Allocator) MulticastDetach(m *Multicast, dst topology.NodeID) ([]TreeEdge, error) {
	if _, ok := m.DestDepth[dst]; !ok {
		return nil, fmt.Errorf("alloc: destination %d not in the tree", dst)
	}
	if len(m.Dsts) == 1 {
		return nil, fmt.Errorf("alloc: cannot detach the last destination (release the tree instead)")
	}
	inEdge := make(map[topology.NodeID]TreeEdge, len(m.Edges))
	for _, e := range m.Edges {
		inEdge[a.g.Link(e.Link).To] = e
	}
	// Count how many destinations use each edge.
	use := make(map[topology.LinkID]int, len(m.Edges))
	for _, d := range m.Dsts {
		node := d
		for node != m.Src {
			e, ok := inEdge[node]
			if !ok {
				return nil, fmt.Errorf("alloc: tree broken at node %d", node)
			}
			use[e.Link]++
			node = a.g.Link(e.Link).From
		}
	}
	// Prune edges used only by dst, from the leaf upward.
	var pruned []TreeEdge
	node := dst
	for node != m.Src {
		e := inEdge[node]
		if use[e.Link] > 1 {
			break
		}
		pruned = append(pruned, e)
		a.setLinkBits(e.Link, a.linkBits(e.Link)&^m.InjectSlots.RotateUp(e.Depth).Bits)
		node = a.g.Link(e.Link).From
	}
	a.setRXBits(dst, a.rxBits(dst)&^m.InjectSlots.RotateUp(m.DestDepth[dst]).Bits)

	prunedSet := make(map[topology.LinkID]bool, len(pruned))
	for _, e := range pruned {
		prunedSet[e.Link] = true
	}
	var kept []TreeEdge
	for _, e := range m.Edges {
		if !prunedSet[e.Link] {
			kept = append(kept, e)
		}
	}
	m.Edges = kept
	var dsts []topology.NodeID
	for _, d := range m.Dsts {
		if d != dst {
			dsts = append(dsts, d)
		}
	}
	m.Dsts = dsts
	delete(m.DestDepth, dst)
	return pruned, nil
}
