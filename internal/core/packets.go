package core

import (
	"fmt"
	"sort"

	"daelite/internal/alloc"
	"daelite/internal/cfgproto"
	"daelite/internal/phit"
	"daelite/internal/slots"
	"daelite/internal/topology"
)

// pairAt is an (element, spec) configuration pair annotated with the
// element's pipeline depth (its slot offset from the source injection
// slot). Within one packet the pairs must have strictly decreasing,
// contiguous depths — that is what the decoder's rotate-per-pair scheme
// encodes. segments with depth gaps are split into separate packets
// ("independent path segments"). element is a global node ID until
// splitRegionRuns rewrites it, so a padding pair carries padPair, not
// cfgproto.PadElement: global node 127 is a real element on platforms
// past one region.
type pairAt struct {
	element int
	spec    cfgproto.PortSpec
	depth   int
}

// padPair is the pairAt.element of a padding pair; segmentsToPackets
// turns it into cfgproto.PadElement when it builds the packet.
const padPair = -1

// cfgPacket is a configuration packet addressed to one region's tree.
// The words are the bare packet; the region-select envelope (if the
// platform has more than one region) is added at submission by the
// configtree.Forest.
type cfgPacket struct {
	region int
	words  []phit.ConfigWord
}

// regionRun is a depth-contiguous slice of a path segment whose real
// pairs all live in one configuration region, with element IDs already
// rewritten to the region-local ID space.
type regionRun struct {
	region int
	pairs  []pairAt
}

// splitRegionRuns cuts a segment wherever the path crosses into another
// configuration region and rewrites element IDs to region-local ones.
// Padding pairs belong to the run of the surrounding real pairs; pads
// left dangling at a cut are dropped — the next run's packet re-bases
// its mask to the head pair's depth, so the rotations those pads would
// burn never happen. On a single-region platform every segment is one
// run with identity IDs, preserving the original packets exactly.
func (p *Platform) splitRegionRuns(seg []pairAt) []regionRun {
	var runs []regionRun
	cur := regionRun{region: -1}
	flush := func() {
		for len(cur.pairs) > 0 && cur.pairs[len(cur.pairs)-1].element == padPair {
			cur.pairs = cur.pairs[:len(cur.pairs)-1]
		}
		if len(cur.pairs) > 0 {
			runs = append(runs, cur)
		}
		cur = regionRun{region: -1}
	}
	for _, pr := range seg {
		if pr.element == padPair {
			if len(cur.pairs) > 0 {
				cur.pairs = append(cur.pairs, pr)
			}
			continue
		}
		reg := p.Regions.Of(topology.NodeID(pr.element))
		if cur.region >= 0 && reg != cur.region {
			flush()
		}
		cur.region = reg
		pr.element = p.Regions.LocalID(topology.NodeID(pr.element))
		cur.pairs = append(cur.pairs, pr)
	}
	flush()
	return runs
}

// segmentsToPackets chunks depth-contiguous pair runs into configuration
// packets, obeying the MaxPairs-per-packet limit and splitting each
// segment across the regions its path crosses. Each packet's transmitted
// mask is the injection mask rotated up to its first pair's depth.
func (p *Platform) segmentsToPackets(inject slots.Mask, segments [][]pairAt) ([]cfgPacket, error) {
	var packets []cfgPacket
	for _, seg := range segments {
		for i := 1; i < len(seg); i++ {
			if seg[i].depth != seg[i-1].depth-1 {
				return nil, fmt.Errorf("core: segment depths not contiguous: %d after %d", seg[i].depth, seg[i-1].depth)
			}
		}
		for _, run := range p.splitRegionRuns(seg) {
			for start := 0; start < len(run.pairs); start += cfgproto.MaxPairs {
				end := start + cfgproto.MaxPairs
				if end > len(run.pairs) {
					end = len(run.pairs)
				}
				chunk := run.pairs[start:end]
				pkt := cfgproto.PathSetup{Mask: inject.RotateUp(chunk[0].depth)}
				for _, pr := range chunk {
					if pr.element == padPair {
						pr.element = cfgproto.PadElement
					}
					pkt.Pairs = append(pkt.Pairs, cfgproto.Pair{Element: pr.element, Spec: pr.spec})
				}
				words, err := pkt.Words()
				if err != nil {
					return nil, err
				}
				packets = append(packets, cfgPacket{region: run.region, words: words})
			}
		}
	}
	return packets, nil
}

// padTo appends padding pairs (addressed to the reserved PadElement, so
// they match nobody and merely rotate the mask) stepping the depth down
// from just below 'from' to just above 'to'. Pipelined links advance the
// TDM slot by more than one position per hop; the extra rotations are
// burnt here, keeping the decoder's rotate-once-per-pair law intact.
func padTo(seg []pairAt, from, to int) []pairAt {
	for d := from - 1; d > to; d-- {
		seg = append(seg, pairAt{element: padPair, spec: cfgproto.RouterSpec(0, 0), depth: d})
	}
	return seg
}

// unicastPathSegment builds the destination-first pair list for one path
// of a unicast channel. enable=false produces the tear-down variant
// (routers stop driving the outputs, NI slots become idle).
func (p *Platform) unicastPathSegment(pa alloc.PathAlloc, srcCh, dstCh int, enable bool) []pairAt {
	g := p.Mesh.Graph
	L := len(pa.Path)
	// offsets[j] is the slot offset of link j; the router owning output
	// link j configures at that depth, the destination NI at the total.
	offsets := make([]int, L+1)
	for j := 0; j < L; j++ {
		offsets[j+1] = offsets[j] + g.SlotAdvance(pa.Path[j])
	}
	var seg []pairAt

	dst := g.Link(pa.Path[L-1]).To
	seg = append(seg, pairAt{
		element: int(dst),
		spec:    cfgproto.NISpec(false, enable, dstCh),
		depth:   offsets[L],
	})
	prev := offsets[L]
	for j := L - 1; j >= 1; j-- {
		inPort := g.Link(pa.Path[j-1]).ToPort
		outPort := g.Link(pa.Path[j]).FromPort
		if !enable {
			inPort = slots.NoInput
		}
		seg = padTo(seg, prev, offsets[j])
		seg = append(seg, pairAt{
			element: int(g.Link(pa.Path[j]).From),
			spec:    cfgproto.RouterSpec(inPort, outPort),
			depth:   offsets[j],
		})
		prev = offsets[j]
	}
	src := g.Link(pa.Path[0]).From
	seg = padTo(seg, prev, 0)
	seg = append(seg, pairAt{
		element: int(src),
		spec:    cfgproto.NISpec(true, enable, srcCh),
		depth:   0,
	})
	return seg
}

// unicastPackets builds the path set-up (or tear-down) packets for all
// paths of a unicast allocation.
func (p *Platform) unicastPackets(u *alloc.Unicast, srcCh, dstCh int, enable bool) ([]cfgPacket, error) {
	var packets []cfgPacket
	for _, pa := range u.Paths {
		seg := p.unicastPathSegment(pa, srcCh, dstCh, enable)
		pkts, err := p.segmentsToPackets(pa.InjectSlots, [][]pairAt{seg})
		if err != nil {
			return nil, err
		}
		packets = append(packets, pkts...)
	}
	return packets, nil
}

// multicastSegments decomposes a multicast tree into depth-contiguous
// segments: each destination contributes the branch from itself up to the
// first node whose upward portion was already emitted (fork routers are
// re-emitted once per branch because each branch uses a different output
// port, exactly the paper's Fig. 7 mechanism of two outputs sharing one
// input).
func (p *Platform) multicastSegments(m *alloc.Multicast, srcCh int, dstChs map[topology.NodeID]int, enable bool) ([][]pairAt, error) {
	g := p.Mesh.Graph
	// Incoming tree edge per node.
	inEdge := make(map[topology.NodeID]alloc.TreeEdge)
	for _, e := range m.Edges {
		inEdge[g.Link(e.Link).To] = e
	}
	// Destinations deepest-first so the source NI pair lands in the
	// first segment that reaches depth 0.
	dsts := append([]topology.NodeID(nil), m.Dsts...)
	sort.Slice(dsts, func(i, j int) bool {
		if m.DestDepth[dsts[i]] != m.DestDepth[dsts[j]] {
			return m.DestDepth[dsts[i]] > m.DestDepth[dsts[j]]
		}
		return dsts[i] < dsts[j]
	})

	emitted := make(map[topology.NodeID]bool) // nodes whose upward portion is emitted
	var segments [][]pairAt
	for _, d := range dsts {
		var seg []pairAt
		seg = append(seg, pairAt{
			element: int(d),
			spec:    cfgproto.NISpec(false, enable, dstChs[d]),
			depth:   m.DestDepth[d],
		})
		prev := m.DestDepth[d]
		node := d
		for node != m.Src {
			e, ok := inEdge[node]
			if !ok {
				return nil, fmt.Errorf("core: multicast tree broken at node %d", node)
			}
			parent := g.Link(e.Link).From
			if parent == m.Src {
				if !emitted[parent] {
					seg = padTo(seg, prev, 0)
					seg = append(seg, pairAt{
						element: int(parent),
						spec:    cfgproto.NISpec(true, enable, srcCh),
						depth:   0,
					})
					emitted[parent] = true
				}
				break
			}
			// parent is a router: its pair for this branch uses
			// the branch's output port and the router's own
			// incoming port.
			pe, ok := inEdge[parent]
			if !ok {
				return nil, fmt.Errorf("core: multicast tree broken at router %d", parent)
			}
			inPort := g.Link(pe.Link).ToPort
			if !enable {
				inPort = slots.NoInput
			}
			seg = padTo(seg, prev, e.Depth)
			seg = append(seg, pairAt{
				element: int(parent),
				spec:    cfgproto.RouterSpec(inPort, g.Link(e.Link).FromPort),
				depth:   e.Depth,
			})
			prev = e.Depth
			if emitted[parent] {
				break // upward portion already configured
			}
			emitted[parent] = true
			node = parent
		}
		segments = append(segments, seg)
	}
	return segments, nil
}

// multicastPackets builds the path set-up (or tear-down) packets for a
// multicast tree.
func (p *Platform) multicastPackets(m *alloc.Multicast, srcCh int, dstChs map[topology.NodeID]int, enable bool) ([]cfgPacket, error) {
	segments, err := p.multicastSegments(m, srcCh, dstChs, enable)
	if err != nil {
		return nil, err
	}
	return p.segmentsToPackets(m.InjectSlots, segments)
}

// regPackets builds register write packets in MaxPairs-sized chunks,
// grouped by the target elements' configuration regions (in first-seen
// order) with element IDs rewritten to the region-local space.
func (p *Platform) regPackets(writes []cfgproto.RegWrite) ([]cfgPacket, error) {
	var order []int
	grouped := make(map[int][]cfgproto.RegWrite)
	for _, w := range writes {
		reg := p.Regions.Of(topology.NodeID(w.Element))
		if _, seen := grouped[reg]; !seen {
			order = append(order, reg)
		}
		w.Element = p.Regions.LocalID(topology.NodeID(w.Element))
		grouped[reg] = append(grouped[reg], w)
	}
	var packets []cfgPacket
	for _, reg := range order {
		ws := grouped[reg]
		for start := 0; start < len(ws); start += cfgproto.MaxPairs {
			end := start + cfgproto.MaxPairs
			if end > len(ws) {
				end = len(ws)
			}
			words, err := cfgproto.WriteRegPacket(ws[start:end])
			if err != nil {
				return nil, err
			}
			packets = append(packets, cfgPacket{region: reg, words: words})
		}
	}
	return packets, nil
}
