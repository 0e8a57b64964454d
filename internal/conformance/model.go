// Package conformance is the repository's mechanical proof layer for the
// paper's TDM guarantees: an analytical reference model that predicts
// slot occupancy, latency bounds and attained bandwidth in closed form
// from the allocator's reservations and the topology alone; online
// invariant checkers attachable to any core.Platform through the
// existing probe hooks, reporting through the telemetry registry; and a
// deterministic randomized scenario generator that runs sim-vs-model
// differential checks plus a mutation smoke mode proving the checkers
// actually fire on corrupted state.
//
// The model never looks at simulation state. Its latency and bandwidth
// predictions are compositions of the closed forms in package analysis;
// its own folds — slot occupancy, NI tables and router entries — follow
// from the slot-alignment law of the paper: a channel injected
// in slot s occupies slot (s + a_k) mod N on the k-th link of its path,
// where a_k is the cumulative slot advance of the preceding links (one
// per plain link, more for pipelined links). The checkers then compare
// three independent witnesses of that law — the model's fold over the
// live connections, the allocator's occupancy words, and the hardware
// slot tables and wires — and any disagreement is a conformance
// violation.
package conformance

import (
	"daelite/internal/alloc"
	"daelite/internal/analysis"
	"daelite/internal/core"
	"daelite/internal/slots"
	"daelite/internal/topology"
)

// Model is the analytical reference model. It is built from the
// platform's static shape (topology, wheel size, slot width, queue
// depth) and evaluated against a set of live connections; it holds no
// simulation state.
type Model struct {
	g         *topology.Graph
	wheel     int
	slotWords int
	recvDepth int
}

// NewModel builds the reference model for a platform's shape.
func NewModel(p *core.Platform) *Model {
	return &Model{
		g:         p.Mesh.Graph,
		wheel:     p.Params.Wheel,
		slotWords: p.Params.SlotWords,
		recvDepth: p.Params.RecvQueueDepth,
	}
}

// Wheel returns the TDM table size the model was built for.
func (m *Model) Wheel() int { return m.wheel }

// foldUnicast visits every (link, mask) reservation of a unicast
// allocation: the injection mask rotated up by the cumulative slot
// advance in front of each link.
func (m *Model) foldUnicast(u *alloc.Unicast, visit func(l topology.LinkID, mask slots.Mask)) {
	if u == nil {
		return
	}
	for _, pa := range u.Paths {
		off := 0
		for _, l := range pa.Path {
			visit(l, pa.InjectSlots.RotateUp(off))
			off += m.g.SlotAdvance(l)
		}
	}
}

// foldMulticast visits every (link, mask) reservation of a multicast
// tree: the shared injection mask rotated up by each edge's depth.
func (m *Model) foldMulticast(mc *alloc.Multicast, visit func(l topology.LinkID, mask slots.Mask)) {
	if mc == nil {
		return
	}
	for _, e := range mc.Edges {
		visit(e.Link, mc.InjectSlots.RotateUp(e.Depth))
	}
}

// LinkOccupancy folds the reservations of every non-closed connection
// into per-link slot masks — the model's prediction of the allocator's
// occupancy words and of where payload may legally appear on the wires.
func (m *Model) LinkOccupancy(conns []*core.Connection) map[topology.LinkID]slots.Mask {
	occ := make(map[topology.LinkID]slots.Mask)
	add := func(l topology.LinkID, mask slots.Mask) {
		cur, ok := occ[l]
		if !ok {
			cur = slots.NewMask(m.wheel)
		}
		occ[l] = cur.Union(mask)
	}
	for _, c := range conns {
		if c.State == core.Closed {
			continue
		}
		m.foldUnicast(c.Fwd, add)
		m.foldUnicast(c.Rev, add)
		m.foldMulticast(c.Tree, add)
	}
	return occ
}

// NISchedule is the model's prediction of one NI's slot table: the
// channel expected in each send and receive slot (slots.NoChannel where
// the table must be idle).
type NISchedule struct {
	Send, Recv []int
}

// NITables predicts every NI slot table from the live connections.
func (m *Model) NITables(conns []*core.Connection) map[topology.NodeID]*NISchedule {
	tables := make(map[topology.NodeID]*NISchedule)
	sched := func(n topology.NodeID) *NISchedule {
		t, ok := tables[n]
		if !ok {
			t = &NISchedule{Send: make([]int, m.wheel), Recv: make([]int, m.wheel)}
			for i := 0; i < m.wheel; i++ {
				t.Send[i], t.Recv[i] = slots.NoChannel, slots.NoChannel
			}
			tables[n] = t
		}
		return t
	}
	unicast := func(u *alloc.Unicast, srcCh, dstCh int) {
		if u == nil {
			return
		}
		for _, pa := range u.Paths {
			for _, s := range pa.InjectSlots.Slots() {
				sched(u.Src).Send[s] = srcCh
			}
			for _, s := range pa.DestSlots(m.g).Slots() {
				sched(u.Dst).Recv[s] = dstCh
			}
		}
	}
	for _, c := range conns {
		if c.State == core.Closed {
			continue
		}
		unicast(c.Fwd, c.SrcChannel, c.DstChannel)
		unicast(c.Rev, c.DstChannel, c.SrcChannel)
		if mc := c.Tree; mc != nil {
			for _, s := range mc.InjectSlots.Slots() {
				sched(mc.Src).Send[s] = c.SrcChannel
			}
			for d := range mc.DestDepth {
				for _, s := range mc.DestSlots(d).Slots() {
					sched(d).Recv[s] = c.DstChannels[d]
				}
			}
		}
	}
	return tables
}

// RouterEntry is the model's prediction of one router slot-table
// reservation: output port out must forward from input port in during
// the masked slots, for the router that owns the given link.
type RouterEntry struct {
	Router  topology.NodeID
	Out, In int
	Mask    slots.Mask
}

// RouterEntries predicts every router slot-table entry from the live
// connections: for link k of a path, the owning router forwards from
// the previous link's arrival port during the injection mask rotated to
// that link's depth.
func (m *Model) RouterEntries(conns []*core.Connection) []RouterEntry {
	var out []RouterEntry
	unicast := func(u *alloc.Unicast) {
		if u == nil {
			return
		}
		for _, pa := range u.Paths {
			off := 0
			for j, l := range pa.Path {
				if j > 0 {
					link := m.g.Link(l)
					prev := m.g.Link(pa.Path[j-1])
					out = append(out, RouterEntry{
						Router: link.From,
						Out:    link.FromPort,
						In:     prev.ToPort,
						Mask:   pa.InjectSlots.RotateUp(off),
					})
				}
				off += m.g.SlotAdvance(l)
			}
		}
	}
	for _, c := range conns {
		if c.State == core.Closed {
			continue
		}
		unicast(c.Fwd)
		unicast(c.Rev)
		if mc := c.Tree; mc != nil {
			// Each tree node has exactly one incoming edge; a fork
			// router forwards that one input on several outputs.
			inPort := make(map[topology.NodeID]int)
			for _, e := range mc.Edges {
				l := m.g.Link(e.Link)
				inPort[l.To] = l.ToPort
			}
			for _, e := range mc.Edges {
				l := m.g.Link(e.Link)
				in, ok := inPort[l.From]
				if !ok {
					continue // source NI owns the first link
				}
				out = append(out, RouterEntry{
					Router: l.From,
					Out:    l.FromPort,
					In:     in,
					Mask:   mc.InjectSlots.RotateUp(e.Depth),
				})
			}
		}
	}
	return out
}

// Latency is the model's closed-form latency prediction for a unicast
// connection, in cycles. Traversal is exact: a word injected on a path
// with cumulative slot advance A arrives A slots — SlotWords×A cycles —
// later (the paper's pipelined slot alignment). Scheduling is a bound:
// a word submitted at the worst moment waits at most MaxGap+2 slots for
// its next injection slot.
type Latency struct {
	// NetMin and NetMax bound the injection-to-delivery traversal:
	// analysis.TraversalCycles over the shortest and longest allocated
	// path. For a single-path connection NetMin == NetMax — the
	// traversal is a constant, which the differential runner asserts
	// exactly.
	NetMin, NetMax uint64
	// SchedMax bounds submit-to-injection wait for a queue-empty
	// source: MaxGap+2 slots of the send mask, in cycles, plus
	// analysis.CommitSlack.
	SchedMax uint64
}

// E2EMax is the end-to-end bound for a source whose offered rate does
// not exceed the reservation, with queueAllowance cycles of queueing
// slack (one wheel period covers CBR phase beats).
func (l Latency) E2EMax(queueAllowance uint64) uint64 {
	return l.SchedMax + l.NetMax + queueAllowance
}

// UnicastLatency predicts the forward-direction latency of a unicast
// connection.
func (m *Model) UnicastLatency(c *core.Connection) Latency {
	var lat Latency
	txMask := slots.NewMask(m.wheel)
	first := true
	for _, pa := range c.Fwd.Paths {
		net := uint64(analysis.TraversalCycles(m.g.PathSlotAdvance(pa.Path), m.slotWords))
		if first || net < lat.NetMin {
			lat.NetMin = net
		}
		if net > lat.NetMax {
			lat.NetMax = net
		}
		first = false
		txMask = txMask.Union(pa.InjectSlots)
	}
	lat.SchedMax = uint64(analysis.MaxSlotGapCycles(txMask, m.slotWords) + 2*m.slotWords + analysis.CommitSlack)
	return lat
}

// MulticastNet predicts the exact traversal latency, in cycles, from
// the multicast source to destination d: SlotWords times d's tree
// depth in slot advances.
func (m *Model) MulticastNet(c *core.Connection, d topology.NodeID) uint64 {
	return uint64(analysis.TraversalCycles(c.Tree.DestDepth[d], m.slotWords))
}

// Bandwidth predicts the guaranteed forward throughput of a connection
// in words per cycle: the reserved share of the wheel. Each slot
// carries SlotWords words every Wheel×SlotWords cycles, so k reserved
// slots sustain k/Wheel words per cycle.
func (m *Model) Bandwidth(c *core.Connection) float64 {
	switch {
	case c.Tree != nil:
		return analysis.GuaranteedBandwidth(c.Tree.InjectSlots)
	case c.Fwd != nil:
		return analysis.UnicastGuarantees(m.g, c.Fwd, m.slotWords).Bandwidth
	}
	return 0
}

// DeliverySlack is the tolerance, in words, of the attained-bandwidth
// differential check: pipeline fill and credit-loop ramp of the
// connection plus two wheel periods of phase beat, converted to words
// at link rate. Saturated sources must attain Bandwidth×cycles within
// this slack.
func (m *Model) DeliverySlack(c *core.Connection) float64 {
	w := m.slotWords
	maxAdv := 0
	fold := func(u *alloc.Unicast) {
		if u == nil {
			return
		}
		for _, pa := range u.Paths {
			if a := m.g.PathSlotAdvance(pa.Path); a > maxAdv {
				maxAdv = a
			}
		}
	}
	fold(c.Fwd)
	fold(c.Rev)
	if c.Tree != nil {
		for _, dep := range c.Tree.DestDepth {
			if dep > maxAdv {
				maxAdv = dep
			}
		}
	}
	return float64(w*(2*m.wheel+2*maxAdv) + 2*m.recvDepth + 16)
}
