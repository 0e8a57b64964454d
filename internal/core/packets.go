package core

import (
	"cmp"
	"fmt"
	"slices"

	"daelite/internal/alloc"
	"daelite/internal/analysis"
	"daelite/internal/cfgproto"
	"daelite/internal/phit"
	"daelite/internal/slots"
	"daelite/internal/topology"
)

// A configuration transaction is every packet one operation submits: a
// connection's set-up or tear-down, or one destination's graft onto or
// prune from a live multicast tree. All of them are built by one walker
// (walk) into the platform's transaction buffers and staged by one
// submit, all or nothing.

// pairAt is an (element, spec) configuration pair annotated with the
// element's pipeline depth (its slot offset from the source injection
// slot). Within one packet the pairs must have strictly decreasing,
// contiguous depths — that is what the decoder's rotate-per-pair scheme
// encodes. element is a global node ID until flushSegment rewrites it,
// so a padding pair carries padPair, not cfgproto.PadElement: global
// node 127 is a real element on platforms past one region.
type pairAt struct {
	element int
	spec    cfgproto.PortSpec
	depth   int
}

// padPair is the pairAt.element of a padding pair; flushSegment turns it
// into cfgproto.PadElement when it builds the packet.
const padPair = -1

// cfgPacket is one packet of the transaction under construction: the
// region whose tree carries it and its words, tx.words[from:to]. The
// region-select envelope (if the platform has more than one region) is
// added at submission by the configtree.Forest.
type cfgPacket struct {
	region   int
	from, to int
}

// txBuffers holds the transaction under construction and the walker's
// scratch space. The platform owns one set and reuses it, so building a
// transaction allocates nothing once the buffers have grown
// (Module.SubmitPacket copies the words it stages).
type txBuffers struct {
	words   []phit.ConfigWord
	packets []cfgPacket

	seg     []pairAt         // the segment being walked
	up      []alloc.TreeEdge // the branch being walked, leaf first
	pairs   []cfgproto.Pair  // one packet's pairs
	writes  []cfgproto.RegWrite
	chunk   []cfgproto.RegWrite
	dsts    []topology.NodeID
	inEdge  map[topology.NodeID]alloc.TreeEdge
	emitted map[topology.NodeID]bool
	need    []int // wire words per region
	seen    []bool
}

// resetTx empties the transaction under construction.
func (p *Platform) resetTx() *txBuffers {
	b := &p.tx
	if b.inEdge == nil {
		b.inEdge = make(map[topology.NodeID]alloc.TreeEdge)
		b.emitted = make(map[topology.NodeID]bool)
		b.need = make([]int, p.Config.NumRegions())
		b.seen = make([]bool, p.Config.NumRegions())
	}
	b.words, b.packets, b.writes = b.words[:0], b.packets[:0], b.writes[:0]
	clear(b.emitted)
	return b
}

// walk appends one destination-first segment to the transaction: the
// head pair of the destination NI, then, for each edge of tx.up (leaf
// first, the source NI's link last), the pair of the element driving
// it, with padding pairs across pipelined links. A router's pair routes
// its incoming branch edge, the next edge up, to the edge's output
// port; enable=false writes the tear-down variant (routers stop driving
// the output, NI slots become idle). The walk stops after the first
// element already in tx.emitted, whose upward portion is configured,
// and marks every element it passes — so a fork router is emitted once
// per branch, each time for that branch's output port: the paper's
// Fig. 7 mechanism of two outputs sharing one input.
func (p *Platform) walk(inject slots.Mask, head pairAt, srcCh int, enable bool) error {
	b := &p.tx
	g := p.Mesh.Graph
	seg := append(b.seg[:0], head)
	prev := head.depth
	for i, e := range b.up {
		parent := g.Link(e.Link).From
		if i == len(b.up)-1 {
			if !b.emitted[parent] {
				seg = padTo(seg, prev, 0)
				seg = append(seg, pairAt{element: int(parent), spec: cfgproto.NISpec(true, enable, srcCh)})
				b.emitted[parent] = true
			}
			break
		}
		inPort := slots.NoInput
		if enable {
			inPort = g.Link(b.up[i+1].Link).ToPort
		}
		seg = padTo(seg, prev, e.Depth)
		seg = append(seg, pairAt{
			element: int(parent),
			spec:    cfgproto.RouterSpec(inPort, g.Link(e.Link).FromPort),
			depth:   e.Depth,
		})
		prev = e.Depth
		if b.emitted[parent] {
			break
		}
		b.emitted[parent] = true
	}
	b.seg = seg
	return p.flushSegment(inject)
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

// flushSegment turns the walked segment into packets: it cuts the
// segment wherever the path crosses into another configuration region,
// rewrites element IDs to region-local ones and chunks each run by the
// MaxPairs-per-packet limit. Each packet's mask is the injection mask
// rotated up to its first pair's depth. Padding pairs left dangling at a
// region cut are dropped — the next run's packet re-bases its mask to
// its head pair's depth, so the rotations they would burn never happen.
// On a single-region platform a segment is one run with identity IDs.
// The segment's head is its destination NI: twice the traversal at its
// depth bounds a word's flight, which the simulator's provenance arena
// must hold the word's Tag for.
func (p *Platform) flushSegment(inject slots.Mask) error {
	b := &p.tx
	seg := b.seg
	p.Sim.HoldProvenance(2 * uint64(analysis.TraversalCycles(seg[0].depth, p.Params.SlotWords)))
	for i := 1; i < len(seg); i++ {
		if seg[i].depth != seg[i-1].depth-1 {
			return fmt.Errorf("core: segment depths not contiguous: %d after %d", seg[i].depth, seg[i-1].depth)
		}
	}
	for i := 0; i < len(seg); {
		if seg[i].element == padPair {
			i++
			continue
		}
		reg := p.Regions.Of(topology.NodeID(seg[i].element))
		end, j := i+1, i+1 // end: one past the run's last real pair
		for ; j < len(seg); j++ {
			if seg[j].element == padPair {
				continue
			}
			if p.Regions.Of(topology.NodeID(seg[j].element)) != reg {
				break
			}
			end = j + 1
		}
		for start := i; start < end; start += cfgproto.MaxPairs {
			b.pairs = b.pairs[:0]
			for _, pr := range seg[start:min(start+cfgproto.MaxPairs, end)] {
				el := cfgproto.PadElement
				if pr.element != padPair {
					el = p.Regions.LocalID(topology.NodeID(pr.element))
				}
				b.pairs = append(b.pairs, cfgproto.Pair{Element: el, Spec: pr.spec})
			}
			from := len(b.words)
			words, err := cfgproto.PathSetup{Mask: inject.RotateUp(seg[start].depth), Pairs: b.pairs}.AppendWords(b.words)
			b.words = words
			if err != nil {
				return err
			}
			b.packets = append(b.packets, cfgPacket{region: reg, from: from, to: len(b.words)})
		}
		i = j
	}
	return nil
}

// buildUnicast appends the path packets of every path of a unicast
// allocation: each path is a one-branch tree whose edge depths are its
// links' slot offsets.
func (p *Platform) buildUnicast(u *alloc.Unicast, srcCh, dstCh int, enable bool) error {
	b := &p.tx
	g := p.Mesh.Graph
	for _, pa := range u.Paths {
		depth := g.PathSlotAdvance(pa.Path)
		head := pairAt{
			element: int(g.Link(pa.Path[len(pa.Path)-1]).To),
			spec:    cfgproto.NISpec(false, enable, dstCh),
			depth:   depth,
		}
		b.up = b.up[:0]
		for j := len(pa.Path) - 1; j >= 0; j-- {
			depth -= g.SlotAdvance(pa.Path[j])
			b.up = append(b.up, alloc.TreeEdge{Link: pa.Path[j], Depth: depth})
		}
		clear(b.emitted)
		if err := p.walk(pa.InjectSlots, head, srcCh, enable); err != nil {
			return err
		}
	}
	return nil
}

// indexTree records each tree node's incoming edge for branchUp.
func (p *Platform) indexTree(m *alloc.Multicast) {
	clear(p.tx.inEdge)
	for _, e := range m.Edges {
		p.tx.inEdge[p.Mesh.Graph.Link(e.Link).To] = e
	}
}

// branchUp sets tx.up to the tree edges from node up to the tree's
// source, leaf first.
func (p *Platform) branchUp(m *alloc.Multicast, node topology.NodeID) error {
	b := &p.tx
	b.up = b.up[:0]
	for node != m.Src {
		e, ok := b.inEdge[node]
		if !ok || len(b.up) == len(m.Edges) {
			return fmt.Errorf("core: multicast tree broken at node %d", node)
		}
		b.up = append(b.up, e)
		node = p.Mesh.Graph.Link(e.Link).From
	}
	return nil
}

// destHead is the head pair of a tree branch: destination d's NI.
func destHead(m *alloc.Multicast, d topology.NodeID, ch int, enable bool) pairAt {
	return pairAt{element: int(d), spec: cfgproto.NISpec(false, enable, ch), depth: m.DestDepth[d]}
}

// buildTree appends the path packets of a whole multicast tree, one
// branch per destination, deepest first so the source NI's pair lands
// in the first branch, which reaches depth 0.
func (p *Platform) buildTree(c *Connection, enable bool) error {
	b := &p.tx
	m := c.Tree
	p.indexTree(m)
	b.dsts = append(b.dsts[:0], m.Dsts...)
	slices.SortFunc(b.dsts, func(x, y topology.NodeID) int {
		if o := cmp.Compare(m.DestDepth[y], m.DestDepth[x]); o != 0 {
			return o
		}
		return cmp.Compare(x, y)
	})
	for _, d := range b.dsts {
		if err := p.branchUp(m, d); err != nil {
			return err
		}
		if err := p.walk(m.InjectSlots, destHead(m, d, c.DstChannels[d], enable), c.SrcChannel, enable); err != nil {
			return err
		}
	}
	return nil
}

// buildBranch builds the partial-path transaction of one destination of
// c's tree: the walk from dst up to the first element the tree's other
// destinations use — the branch a graft sets up (enable) or a prune
// tears down — then dst's flags write.
func (p *Platform) buildBranch(c *Connection, dst topology.NodeID, ch int, enable bool) error {
	b := p.resetTx()
	m := c.Tree
	p.indexTree(m)
	for _, d := range m.Dsts {
		if d == dst {
			continue
		}
		if err := p.branchUp(m, d); err != nil {
			return err
		}
		for _, e := range b.up {
			b.emitted[p.Mesh.Graph.Link(e.Link).From] = true
		}
	}
	if err := p.branchUp(m, dst); err != nil {
		return err
	}
	if err := p.walk(m.InjectSlots, destHead(m, dst, ch, enable), c.SrcChannel, enable); err != nil {
		return err
	}
	var flags uint8
	if enable {
		flags = cfgproto.FlagOpen
	}
	b.writes = append(b.writes, cfgproto.RegWrite{Element: int(dst), Reg: cfgproto.RegSelect(cfgproto.RegFlags, ch), Value: flags})
	return p.regPackets()
}

// build builds connection c's whole set-up (enable) or tear-down
// transaction: its path packets, then its register writes.
func (p *Platform) build(c *Connection, enable bool) error {
	b := p.resetTx()
	src := int(c.Spec.Src)
	reg := func(el int, class uint8, ch int, v uint8) {
		b.writes = append(b.writes, cfgproto.RegWrite{Element: el, Reg: cfgproto.RegSelect(class, ch), Value: v})
	}
	if c.Tree != nil {
		if err := p.buildTree(c, enable); err != nil {
			return err
		}
		// Multicast disables end-to-end flow control at the source (a
		// single credit counter cannot track several destinations);
		// destinations must consume at line rate. Tear-down clears
		// the unreturned-delivery counter along with the flags:
		// consumed words accumulate there with no reverse path to
		// drain them, and a stale count would leak as bogus credits
		// to whichever connection reuses the channel next.
		if enable {
			reg(src, cfgproto.RegFlags, c.SrcChannel, cfgproto.FlagOpen|cfgproto.FlagMulticast)
		} else {
			reg(src, cfgproto.RegFlags, c.SrcChannel, 0)
		}
		for _, d := range c.Spec.Dsts {
			ch := c.DstChannels[d]
			if enable {
				reg(int(d), cfgproto.RegFlags, ch, cfgproto.FlagOpen)
			} else {
				reg(int(d), cfgproto.RegFlags, ch, 0)
				reg(int(d), cfgproto.RegDelivered, ch, 0)
			}
		}
		return p.regPackets()
	}
	// The forward direction writes the source's TX and destination's RX
	// table under (srcCh, dstCh); the reverse direction swaps the roles
	// and uses the same channel indices at each side, which is what
	// pairs the credit wires.
	if err := p.buildUnicast(c.Fwd, c.SrcChannel, c.DstChannel, enable); err != nil {
		return err
	}
	if err := p.buildUnicast(c.Rev, c.DstChannel, c.SrcChannel, enable); err != nil {
		return err
	}
	dst := int(c.Spec.Dst)
	if enable {
		// Credits mirror the remote receive queue capacity; FlagOpen
		// arms both endpoints.
		credit := uint8(min(p.Params.RecvQueueDepth, phit.MaxCreditValue))
		reg(src, cfgproto.RegCredit, c.SrcChannel, credit)
		reg(dst, cfgproto.RegCredit, c.DstChannel, credit)
		reg(src, cfgproto.RegFlags, c.SrcChannel, cfgproto.FlagOpen)
		reg(dst, cfgproto.RegFlags, c.DstChannel, cfgproto.FlagOpen)
	} else {
		reg(src, cfgproto.RegFlags, c.SrcChannel, 0)
		reg(dst, cfgproto.RegFlags, c.DstChannel, 0)
		reg(src, cfgproto.RegCredit, c.SrcChannel, 0)
		reg(dst, cfgproto.RegCredit, c.DstChannel, 0)
		// A delivery consumed after the last reverse-slot latch leaves
		// its credit unreturned; clear the counter so it cannot leak
		// into the channel's next user.
		reg(dst, cfgproto.RegDelivered, c.DstChannel, 0)
	}
	return p.regPackets()
}

// regPackets appends the transaction's register writes as write
// packets in MaxPairs-sized chunks, grouped by the target elements'
// configuration regions (in first-seen order) with element IDs
// rewritten to the region-local space.
func (p *Platform) regPackets() error {
	b := &p.tx
	clear(b.seen)
	for i, w := range b.writes {
		reg := p.Regions.Of(topology.NodeID(w.Element))
		if b.seen[reg] {
			continue
		}
		b.seen[reg] = true
		b.chunk = b.chunk[:0]
		for _, x := range b.writes[i:] {
			if p.Regions.Of(topology.NodeID(x.Element)) != reg {
				continue
			}
			x.Element = p.Regions.LocalID(topology.NodeID(x.Element))
			if b.chunk = append(b.chunk, x); len(b.chunk) == cfgproto.MaxPairs {
				if err := b.addWrites(reg); err != nil {
					return err
				}
			}
		}
		if len(b.chunk) > 0 {
			if err := b.addWrites(reg); err != nil {
				return err
			}
		}
	}
	return nil
}

// addWrites appends tx.chunk as one write packet for region and empties
// the chunk.
func (b *txBuffers) addWrites(region int) error {
	from := len(b.words)
	words, err := cfgproto.AppendWriteRegPacket(b.words, b.chunk)
	b.words, b.chunk = words, b.chunk[:0]
	if err != nil {
		return err
	}
	b.packets = append(b.packets, cfgPacket{region: region, from: from, to: len(b.words)})
	return nil
}

// submit stages the built transaction, all or nothing: unless every
// region's staging queue has room for all of the region's words,
// envelopes included, it stages nothing and fails. span is the set-up
// or tear-down span the transaction fills, publishes and traces; a
// graft or prune passes nil and records none.
func (p *Platform) submit(span *Span) error {
	b := &p.tx
	clear(b.need)
	for _, pkt := range b.packets {
		b.need[pkt.region] += p.Config.WireWords(pkt.region, pkt.to-pkt.from)
	}
	if err := p.Config.Fits(b.need); err != nil {
		return err
	}
	for _, pkt := range b.packets {
		if _, err := p.Config.Submit(pkt.region, b.words[pkt.from:pkt.to]); err != nil {
			return err
		}
	}
	if span == nil {
		return nil
	}
	for _, n := range b.need {
		if n > 0 {
			span.Regions++
			span.Words += n // wire words, envelopes included
		}
	}
	p.pendingSpans = append(p.pendingSpans, span)
	p.traceConfig(span)
	return nil
}
