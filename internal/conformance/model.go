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
// its one fold, the Schedule — slot occupancy, router and NI table
// entries — follows from the slot-alignment law of the paper: a channel
// injected in slot s occupies slot (s + a_k) mod N on the k-th link of
// its path, where a_k is the cumulative slot advance of the preceding
// links (one per plain link, more for pipelined links). The checkers
// then compare three independent witnesses of that law — the model's
// fold over the live connections, the allocator's occupancy words, and
// the hardware slot tables and wires — and any disagreement is a
// conformance violation.
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
	// base locates each node's rows in a Schedule's flat tables: a
	// router's in inputs (one row of wheel entries per output), an NI's
	// in tx and rx (one row).
	base              []int
	inputs, niEntries int
}

// NewModel builds the reference model for a platform's shape.
func NewModel(p *core.Platform) *Model {
	g := p.Mesh.Graph
	m := &Model{
		g:         g,
		wheel:     p.Params.Wheel,
		slotWords: p.Params.SlotWords,
		recvDepth: p.Params.RecvQueueDepth,
		base:      make([]int, g.NumNodes()),
	}
	for id := range m.base {
		n := topology.NodeID(id)
		if g.Node(n).Kind == topology.NI {
			m.base[id] = m.niEntries
			m.niEntries += m.wheel
		} else {
			m.base[id] = m.inputs
			m.inputs += g.OutDegree(n) * m.wheel
		}
	}
	return m
}

// Wheel returns the TDM table size the model was built for.
func (m *Model) Wheel() int { return m.wheel }

// Schedule is the model's prediction of the whole network for one set
// of live connections: each link's occupancy — what the allocator's
// occupancy words must hold and where payload may legally appear on the
// wires — the input each router output forwards in each slot, and each
// NI's transmit and receive channel in each slot (slots.NoInput and
// slots.NoChannel where a table must be idle).
type Schedule struct {
	m      *Model
	links  []slots.Mask
	inputs []int
	tx, rx []int
}

// Schedule folds the slot-alignment law once over conns: every
// connection that is not closed, in order, its forward paths, then its
// reverse paths, then its multicast tree, link by link. The k-th link
// of a path carries the injection mask rotated up by the slot advance
// in front of it; a tree edge carries it rotated up by the edge's
// depth. Where two reservations claim one table entry, the later wins.
func (m *Model) Schedule(conns []*core.Connection) *Schedule {
	s := &Schedule{
		m:      m,
		links:  make([]slots.Mask, m.g.NumLinks()),
		inputs: repeat(m.inputs, slots.NoInput),
		tx:     repeat(m.niEntries, slots.NoChannel),
		rx:     repeat(m.niEntries, slots.NoChannel),
	}
	for l := range s.links {
		s.links[l] = slots.NewMask(m.wheel)
	}
	treeIn := repeat(m.g.NumNodes(), -1)
	for _, c := range conns {
		if c.State == core.Closed {
			continue
		}
		s.unicast(c.Fwd, c.SrcChannel, c.DstChannel)
		s.unicast(c.Rev, c.DstChannel, c.SrcChannel)
		if mc := c.Tree; mc != nil {
			// Each tree node has exactly one incoming edge; a fork
			// router forwards that one input on several outputs.
			for _, e := range mc.Edges {
				l := m.g.Link(e.Link)
				treeIn[l.To] = l.ToPort
			}
			for _, e := range mc.Edges {
				l := m.g.Link(e.Link)
				s.reserve(l, mc.InjectSlots.RotateUp(e.Depth), treeIn[l.From], c.SrcChannel, c.DstChannels[l.To])
			}
			for _, e := range mc.Edges {
				treeIn[m.g.Link(e.Link).To] = -1
			}
		}
	}
	return s
}

// repeat returns n copies of v.
func repeat(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func (s *Schedule) unicast(u *alloc.Unicast, tx, rx int) {
	if u == nil {
		return
	}
	for _, pa := range u.Paths {
		off, in := 0, -1
		for _, id := range pa.Path {
			l := s.m.g.Link(id)
			s.reserve(l, pa.InjectSlots.RotateUp(off), in, tx, rx)
			off += s.m.g.SlotAdvance(id)
			in = l.ToPort
		}
	}
}

// reserve records one link carrying a channel in the slots of mask: the
// link's occupancy, then what drives it — the source NI sending channel
// txCh, or the source router's output forwarding input port in (none
// when in < 0) — and, for a link into an NI, that NI receiving channel
// rxCh one slot advance later.
func (s *Schedule) reserve(l topology.Link, mask slots.Mask, in, txCh, rxCh int) {
	g := s.m.g
	s.links[l.ID] = s.links[l.ID].Union(mask)
	switch {
	case g.Node(l.From).Kind == topology.NI:
		tx, _ := s.NI(l.From)
		fill(tx, mask, txCh)
	case in >= 0:
		fill(s.Inputs(l.From, l.FromPort), mask, in)
	}
	if g.Node(l.To).Kind == topology.NI {
		_, rx := s.NI(l.To)
		fill(rx, mask.RotateUp(g.SlotAdvance(l.ID)), rxCh)
	}
}

// fill sets row's entries in the slots of mask to v.
func fill(row []int, mask slots.Mask, v int) {
	for _, slot := range mask.Slots() {
		row[slot] = v
	}
}

// Link returns link l's predicted occupancy.
func (s *Schedule) Link(l topology.LinkID) slots.Mask { return s.links[l] }

// Inputs returns, per slot, the input port router r's output out must
// forward.
func (s *Schedule) Inputs(r topology.NodeID, out int) []int {
	w := s.m.wheel
	return s.inputs[s.m.base[r]+out*w:][:w]
}

// NI returns, per slot, the channels NI n must send and receive.
func (s *Schedule) NI(n topology.NodeID) (tx, rx []int) {
	w := s.m.wheel
	return s.tx[s.m.base[n]:][:w], s.rx[s.m.base[n]:][:w]
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
