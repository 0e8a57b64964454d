package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"daelite/internal/sim"
	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
)

// DefaultStallTimeout is the no-progress window after which a connection
// under pressure is declared stalled. It must exceed the worst legitimate
// inter-delivery gap (wheel rotation plus queueing jitter) by a wide
// margin; at the default 8-slot/2-word wheel a healthy connection delivers
// at least once every 16 cycles once traffic flows.
const DefaultStallTimeout = 512

// HealthMonitor watches every open connection's end-to-end progress and
// flags stalls: a connection whose source has pressure (queued words or
// ongoing injection) while a destination's received-word counter freezes
// for its stall timeout. It observes through a simulator probe and adds
// no hardware, mirroring how a software health daemon would poll NI
// counters through the configuration tree.
type HealthMonitor struct {
	p       *Platform
	timeout uint64
	state   map[int]*connHealth

	// OnStall, when set, is called from the polling probe (stepping
	// goroutine, deterministic order) the cycle a stall is declared —
	// the flight recorder arms its dump trigger here.
	OnStall func(c *Connection, cycle uint64)

	act sim.Activity // the timer of the next poll that could declare a stall

	// ids and dsts are poll's reused buffers, so a poll allocates only
	// for a connection it sees for the first time.
	ids  []int
	dsts []endpoint
}

type connHealth struct {
	lastRx      map[topology.NodeID]uint64
	lastAdvance map[topology.NodeID]uint64 // last cycle each destination's counter moved
	lastTx      uint64
	// lastPressure is the last cycle the source showed demand: a queued
	// backlog or an injection since the previous poll.
	lastPressure uint64

	stalled bool
	detect  uint64 // cycle the stall was declared
}

// progressRecent reports whether every destination advanced within the
// window — the exoneration criterion for diagnosis.
func (st *connHealth) progressRecent(cycle, window uint64) bool {
	for _, la := range st.lastAdvance {
		if cycle-la >= window {
			return false
		}
	}
	return true
}

// NewHealthMonitor attaches a monitor to a platform. stallTimeout <= 0
// selects DefaultStallTimeout.
func NewHealthMonitor(p *Platform, stallTimeout uint64) *HealthMonitor {
	if stallTimeout == 0 {
		stallTimeout = DefaultStallTimeout
	}
	h := &HealthMonitor{p: p, timeout: stallTimeout, state: make(map[int]*connHealth)}
	p.Sim.AddProbe(h.poll)
	// The polling probe does not run during skipped cycles, so the
	// monitor holds the next poll that could declare a stall as the
	// timer of an ordered component that only sleeps: fast-forward stops
	// in time for that poll. CompleteConfig wakes it when it opens a
	// connection, so the baseline poll is not skipped either.
	h.act = p.Sim.AddOrdered(&sim.Func{Label: "health-monitor", OnEval: func(uint64) { h.act.Sleep() }})
	p.openWakes = append(p.openWakes, h.act)
	return h
}

func (h *HealthMonitor) poll(cycle uint64) {
	// Drop state of closed connections.
	for id := range h.state {
		if _, live := h.p.connections[id]; !live {
			delete(h.state, id)
		}
	}
	// Poll in ID order: stall events must be emitted in a deterministic
	// order, not the connection map's iteration order.
	h.ids = h.ids[:0]
	for id := range h.p.connections {
		h.ids = append(h.ids, id)
	}
	slices.Sort(h.ids)
	next := ^uint64(0) // the earliest poll that could declare a stall
	for _, id := range h.ids {
		c := h.p.connections[id]
		if c.State != Open {
			continue
		}
		st := h.state[id]
		if st == nil {
			st = &connHealth{
				lastRx:      make(map[topology.NodeID]uint64),
				lastAdvance: make(map[topology.NodeID]uint64),
			}
			h.dsts = connDsts(h.dsts, c)
			for _, d := range h.dsts {
				st.lastRx[d.node] = h.p.NIs[d.node].RxWords(d.channel)
				st.lastAdvance[d.node] = cycle
			}
			st.lastTx = h.p.NIs[c.Spec.Src].TxWords(c.SrcChannel)
			st.lastPressure = cycle
			h.state[id] = st
			continue
		}
		srcNI := h.p.NIs[c.Spec.Src]
		tx := srcNI.TxWords(c.SrcChannel)
		if srcNI.SendQueueLen(c.SrcChannel) > 0 || tx > st.lastTx {
			st.lastPressure = cycle
		}
		st.lastTx = tx

		h.dsts = connDsts(h.dsts, c)
		for _, d := range h.dsts {
			cur := h.p.NIs[d.node].RxWords(d.channel)
			if cur > st.lastRx[d.node] {
				st.lastAdvance[d.node] = cycle
			}
			st.lastRx[d.node] = cur
		}

		// Stall: some destination has been frozen for the whole window
		// while source demand stayed live. A declared stall stays
		// latched — recovery is the repair flow's job, not a lucky
		// delivered word's.
		if st.stalled || cycle-st.lastPressure >= h.timeout {
			continue
		}
		minAdv := cycle
		for _, la := range st.lastAdvance {
			minAdv = min(minAdv, la)
		}
		if t0 := minAdv + h.timeout; t0 > cycle {
			// With every counter frozen the poll of cycle t0 is the
			// first that could declare this stall, if the pressure
			// window is still open then; it runs after the step of
			// cycle t0-1.
			if t0 < st.lastPressure+h.timeout {
				next = min(next, t0-1)
			}
			continue
		}
		st.stalled = true
		st.detect = cycle
		detail := fmt.Sprintf("conn %d (%s)", id, h.p.connDetail(c.Spec))
		if h.p.tel != nil {
			h.p.tel.Emit(telemetry.Event{
				Cycle:  cycle,
				Kind:   "stall",
				Detail: detail,
			})
		}
		h.p.tracer.Point(tracing.SpanRef{}, "stall", "health", detail, cycle)
		if h.OnStall != nil {
			h.OnStall(c, cycle)
		}
	}
	h.act.SleepUntil(next)
}

// endpoint pairs a destination NI with its local channel.
type endpoint struct {
	node    topology.NodeID
	channel int
}

// connDsts fills buf with c's destination endpoints in node order and
// returns it. It reads the connection's current channels, so a multicast
// destination grafted or pruned since the last poll is watched or dropped.
func connDsts(buf []endpoint, c *Connection) []endpoint {
	buf = buf[:0]
	if c.Tree == nil {
		return append(buf, endpoint{node: c.Spec.Dst, channel: c.DstChannel})
	}
	for d, ch := range c.DstChannels {
		buf = append(buf, endpoint{node: d, channel: ch})
	}
	slices.SortFunc(buf, func(a, b endpoint) int { return cmp.Compare(a.node, b.node) })
	return buf
}

// Stalled returns the currently stalled open connections in ID order.
func (h *HealthMonitor) Stalled() []*Connection {
	var ids []int
	for id, st := range h.state {
		if st.stalled {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	out := make([]*Connection, 0, len(ids))
	for _, id := range ids {
		if c, ok := h.p.connections[id]; ok {
			out = append(out, c)
		}
	}
	return out
}

// DetectCycle returns the cycle a connection's stall was declared, or 0.
func (h *HealthMonitor) DetectCycle(connID int) uint64 {
	if st, ok := h.state[connID]; ok && st.stalled {
		return st.detect
	}
	return 0
}

// connRouterLinks returns the router-to-router links a connection's
// reservation crosses (both directions for unicast; all tree edges for
// multicast). NI access links are deliberately left out of diagnosis: they
// lie on every path to their endpoint, so excluding one would make the
// endpoint permanently unreachable instead of re-routable.
func connRouterLinks(p *Platform, c *Connection) []topology.LinkID {
	all := connFwdRouterLinks(p, c)
	if c.Tree == nil {
		for _, pa := range c.Rev.Paths {
			all = append(all, routerOnly(p, pa.Path)...)
		}
	}
	return all
}

// connFwdRouterLinks returns only the forward-direction router links — the
// ones a delivered word actually proves working. The reverse path carries
// nothing but credits, and a connection whose reverse path just died keeps
// making forward progress until its credit pool drains; letting it vouch
// for its reverse links would exonerate its own killer.
func connFwdRouterLinks(p *Platform, c *Connection) []topology.LinkID {
	var all []topology.LinkID
	if c.Tree != nil {
		for _, e := range c.Tree.Edges {
			all = append(all, routerOnly(p, []topology.LinkID{e.Link})...)
		}
		return all
	}
	for _, pa := range c.Fwd.Paths {
		all = append(all, routerOnly(p, pa.Path)...)
	}
	return all
}

func routerOnly(p *Platform, ls []topology.LinkID) []topology.LinkID {
	var out []topology.LinkID
	for _, l := range ls {
		link := p.Mesh.Link(l)
		if _, ok := p.Routers[link.From]; !ok {
			continue
		}
		if _, ok := p.Routers[link.To]; !ok {
			continue
		}
		out = append(out, l)
	}
	return out
}

// SuspectLinks performs network-level fault localization: the union of
// router-to-router links used by stalled connections (both directions —
// either can be the cause), minus every *forward* link of a recently
// progressing connection (a delivered word proves exactly the path it
// travelled, nothing about the credit path). With background traffic this
// typically narrows to the failed link and at most a handful of innocents;
// excluding an innocent link only costs capacity, never correctness.
func (h *HealthMonitor) SuspectLinks() []topology.LinkID {
	now := h.p.Sim.Cycle()
	suspects := make(map[topology.LinkID]bool)
	for id, st := range h.state {
		if !st.stalled {
			continue
		}
		if c, ok := h.p.connections[id]; ok {
			for _, l := range connRouterLinks(h.p, c) {
				suspects[l] = true
			}
		}
	}
	for id, st := range h.state {
		if st.stalled || !st.progressRecent(now, h.timeout) {
			continue
		}
		if c, ok := h.p.connections[id]; ok {
			for _, l := range connFwdRouterLinks(h.p, c) {
				delete(suspects, l)
			}
		}
	}
	out := make([]topology.LinkID, 0, len(suspects))
	for l := range suspects {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
