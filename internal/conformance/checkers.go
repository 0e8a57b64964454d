package conformance

// Online invariant checkers. A Checker attaches to a platform through
// the sim kernel's probe hook — the same zero-cost-when-detached
// mechanism the telemetry harvest and the stats monitor use: probes run
// sequentially on the stepping goroutine after each commit, so the
// checker reads settled state, adds no hardware, and an unattached
// platform pays nothing.
//
// Five invariants are watched:
//
//   - link contention-freedom: every payload flit observed on a link
//     must sit in a slot the model reserves there (per cycle);
//   - slot-table/crossbar consistency: every router and NI slot table
//     must equal the model's fold over the live connections, and the
//     allocator's occupancy words must equal the model's (sampled);
//   - credit conservation: per open unicast connection, source credits
//     plus words in flight plus queued and unreturned deliveries never
//     exceed the receive queue capacity (sampled);
//   - config-tree single-outstanding-request: the converging response
//     path never carries a response when no read is awaited (per
//     cycle);
//   - multicast line-rate consumption: a multicast destination NI never
//     drops words while its sink keeps up (sampled).
//
// Each violation increments a per-check telemetry counter
// (conformance_violations_total{check=...}) and emits a capped number
// of telemetry events, so detections surface in every exporter.

import (
	"fmt"

	"daelite/internal/configtree"
	"daelite/internal/core"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/slots"
	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
)

// Check names used in the telemetry label and violation records.
const (
	CheckContention = "contention"
	CheckTable      = "table"
	CheckOccupancy  = "occupancy"
	CheckCredit     = "credit"
	CheckConfigTree = "configtree"
	CheckMulticast  = "multicast"
)

// maxEvents caps the violations a Checker records and emits as
// telemetry events, so a hard failure cannot flood the registry.
const maxEvents = 32

// Options tune a Checker.
type Options struct {
	// SampleEvery is the cadence of the structural checks (tables,
	// occupancy, credits, drops) in cycles; <= 0 selects 64. The
	// per-cycle checks (wires, response path) always run every cycle.
	SampleEvery int
	// LineRate disables the multicast zero-drop check when false.
	LineRate bool
	// OnViolation, when set, is called for each recorded violation
	// (within the maxEvents cap) from the checking probe on the
	// stepping goroutine — the flight recorder's dump trigger.
	OnViolation func(Violation)
}

// Violation is one recorded invariant failure.
type Violation struct {
	Cycle  uint64
	Check  string
	Detail string
}

// Checker is an attached set of online invariant checkers.
type Checker struct {
	p   *core.Platform
	m   *Model
	reg *telemetry.Registry
	opt Options

	counters map[string]*telemetry.Counter
	events   int

	// Cached expectation, rebuilt by Resync: per-link legal payload
	// masks for the per-cycle wire check.
	wires      []checkWire
	graceUntil uint64
	drain      uint64

	// Credit baselines, captured at Resync: lifetime counters may span
	// closed connections that reused the channel.
	bases map[int]*creditBase

	// Multicast drop baselines per destination NI.
	dropBase map[topology.NodeID]uint64

	// lastEpoch mirrors the allocator's occupancy epoch; any change means
	// the reservation set moved (open, close, repair) and the cached
	// expectation must be rebuilt before the per-cycle checks resume.
	lastEpoch uint64

	// resps watches each configuration region's reverse path: the
	// single-outstanding-read invariant holds per region (each tree has
	// its own unarbitrated response path and host module).
	resps []respWatch

	violations []Violation
	total      uint64
}

// respWatch follows one region's configuration module and its root
// reverse wire for the per-cycle config-tree check.
type respWatch struct {
	mod             *configtree.Module
	prevOutstanding bool
}

type checkWire struct {
	link topology.Link
	wire *sim.Reg[phit.Flit]
	occ  slots.Mask
}

type creditBase struct {
	tx, rx          uint64
	recv, delivered int
}

// Attach connects the checkers to a platform. reg receives the
// violation counters and events (the platform's own registry is a
// natural choice when telemetry is attached, but any registry works).
// Call Resync after every intentional reconfiguration — connection
// open, close or repair — to rebuild the expectation and re-arm the
// per-cycle checks after a short grace window.
func Attach(p *core.Platform, reg *telemetry.Registry, opt Options) *Checker {
	if opt.SampleEvery <= 0 {
		opt.SampleEvery = 64
	}
	ck := &Checker{
		p:        p,
		m:        NewModel(p),
		reg:      reg,
		opt:      opt,
		counters: make(map[string]*telemetry.Counter),
		bases:    make(map[int]*creditBase),
		dropBase: make(map[topology.NodeID]uint64),
	}
	for _, name := range []string{CheckContention, CheckTable, CheckOccupancy, CheckCredit, CheckConfigTree, CheckMulticast} {
		ck.counters[name] = reg.Counter("conformance_violations_total", telemetry.L("check", name))
	}
	for _, l := range p.Mesh.Links() {
		ck.wires = append(ck.wires, checkWire{link: l, wire: p.LinkWire(l)})
	}
	for reg := range p.Trees {
		ck.resps = append(ck.resps, respWatch{mod: p.Config.Region(reg)})
	}
	ck.Resync()
	every := uint64(opt.SampleEvery)
	p.Sim.AddProbe(func(cycle uint64) {
		ck.perCycle(cycle)
		if cycle%every == 0 && cycle >= ck.graceUntil {
			ck.structural(cycle)
		}
	})
	return ck
}

// Resync rebuilds the checker's expectation from the platform's live
// connections and re-arms every check: per-cycle checks resume after a
// grace window long enough for in-flight configuration and payload of
// the previous schedule to drain, and credit and drop baselines are
// recaptured. Call it after AwaitOpen, Close (once the tear-down has
// settled, e.g. via CompleteConfig) and Repair.
func (ck *Checker) Resync() {
	conns := ck.liveConns()
	occ := ck.m.LinkOccupancy(conns)
	for i := range ck.wires {
		mask, ok := occ[ck.wires[i].link.ID]
		if !ok {
			mask = slots.NewMask(ck.m.wheel)
		}
		ck.wires[i].occ = mask
	}
	ck.drain = uint64((ck.m.wheel + 8) * ck.m.slotWords)
	ck.graceUntil = ck.p.Cycle() + ck.p.ConfigSettleCycles() + ck.drain
	ck.lastEpoch = ck.p.Alloc.Epoch()
	ck.bases = make(map[int]*creditBase)
	for _, c := range conns {
		if c.State != core.Open || c.Tree != nil {
			continue
		}
		src, dst := ck.p.NI(c.Spec.Src), ck.p.NI(c.Spec.Dst)
		ck.bases[c.ID] = &creditBase{
			tx:        src.TxWords(c.SrcChannel),
			rx:        dst.RxWords(c.DstChannel),
			recv:      dst.RecvLen(c.DstChannel),
			delivered: dst.DeliveredCredits(c.DstChannel),
		}
	}
	ck.dropBase = make(map[topology.NodeID]uint64)
	for _, c := range conns {
		if c.Tree == nil {
			continue
		}
		for d := range c.Tree.DestDepth {
			ck.dropBase[d] = ck.p.NI(d).Dropped()
		}
	}
}

func (ck *Checker) liveConns() []*core.Connection {
	byID := ck.p.Connections()
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	// Deterministic order regardless of map iteration.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	out := make([]*core.Connection, 0, len(ids))
	for _, id := range ids {
		out = append(out, byID[id])
	}
	return out
}

// Violations returns the total violation count across all checks.
func (ck *Checker) Violations() uint64 { return ck.total }

// ViolationCount returns one check's violation count.
func (ck *Checker) ViolationCount(check string) uint64 {
	if c, ok := ck.counters[check]; ok {
		return c.Value()
	}
	return 0
}

// Recorded returns the recorded violations (capped at maxEvents).
func (ck *Checker) Recorded() []Violation {
	out := make([]Violation, len(ck.violations))
	copy(out, ck.violations)
	return out
}

func (ck *Checker) violate(cycle uint64, check, format string, args ...interface{}) {
	ck.total++
	ck.counters[check].Inc()
	if ck.events >= maxEvents {
		return
	}
	ck.events++
	detail := fmt.Sprintf(format, args...)
	v := Violation{Cycle: cycle, Check: check, Detail: detail}
	ck.violations = append(ck.violations, v)
	ck.reg.Emit(telemetry.Event{Cycle: cycle, Kind: "conformance_violation",
		Detail: check + ": " + detail})
	ck.p.Tracer().Point(tracing.SpanRef{}, "conformance_violation", check, detail, cycle)
	if ck.opt.OnViolation != nil {
		ck.opt.OnViolation(v)
	}
}

// perCycle runs the cheap wire-level checks every cycle.
func (ck *Checker) perCycle(cycle uint64) {
	if ep := ck.p.Alloc.Epoch(); ep != ck.lastEpoch {
		// The reservation set changed under us — an admission, release
		// or repair committed since the last resync. Rebuild the
		// expectation and let the grace window cover the transition.
		ck.Resync()
	}
	if ck.p.Config.Busy() {
		// Configuration words are still in flight — e.g. a multi-packet
		// tear-down draining through the region modules — so the
		// hardware legitimately lags the model. Keep the grace window
		// open until the last packet has settled and stale payload has
		// drained.
		ck.graceUntil = cycle + ck.p.ConfigSettleCycles() + ck.drain
	}
	slot := slots.SlotOfCycle(cycle, ck.m.slotWords, ck.m.wheel)
	if cycle >= ck.graceUntil {
		for i := range ck.wires {
			w := &ck.wires[i]
			if f := w.wire.Get(); f.Valid && !w.occ.Has(slot) {
				ck.violate(cycle, CheckContention,
					"payload on %s->%s in unreserved slot %d (%s)",
					ck.p.Mesh.Node(w.link.From).Name, ck.p.Mesh.Node(w.link.To).Name,
					slot, ck.origin(f))
			}
		}
	}
	for i := range ck.resps {
		w := &ck.resps[i]
		out := w.mod.ReadOutstanding()
		if r := w.mod.RootResponse(); r.Valid && !out && !w.prevOutstanding {
			ck.violate(cycle, CheckConfigTree,
				"region %d: response word %#02x with no read outstanding", i, r.Bits)
		}
		w.prevOutstanding = out
	}
}

// origin names a stray word's source NI, its channel there and its
// sequence number, from the word's provenance.
func (ck *Checker) origin(f phit.Flit) string {
	src, t, ok := ck.p.Sim.Origin(f.Ref)
	if !ok {
		return fmt.Sprintf("provenance handle %d unknown", f.Ref)
	}
	return fmt.Sprintf("from %s ch %d seq %d", src, t.Channel&0xFF, t.Seq)
}

// structural runs the sampled model-vs-allocator-vs-hardware checks.
// While configuration is in flight (a connection still opening, or
// packets queued in the host module) the hardware legitimately lags the
// allocator, so the pass waits for the next sample.
func (ck *Checker) structural(cycle uint64) {
	conns := ck.liveConns()
	if ck.p.Config.Busy() {
		return
	}
	for _, c := range conns {
		if c.State == core.Opening {
			return
		}
	}
	ck.checkOccupancy(cycle, conns)
	ck.checkRouterTables(cycle, conns)
	ck.checkNITables(cycle, conns)
	ck.checkCredits(cycle, conns)
	if ck.opt.LineRate {
		ck.checkMulticastDrops(cycle, conns)
	}
}

// checkOccupancy compares the model's fold with the allocator's
// occupancy words, link by link — the two independent derivations of
// the slot-alignment law must agree bit for bit.
func (ck *Checker) checkOccupancy(cycle uint64, conns []*core.Connection) {
	occ := ck.m.LinkOccupancy(conns)
	for _, l := range ck.p.Mesh.Links() {
		want, ok := occ[l.ID]
		if !ok {
			want = slots.NewMask(ck.m.wheel)
		}
		got := ck.p.Alloc.LinkOccupancy(l.ID)
		if got.Bits != want.Bits {
			ck.violate(cycle, CheckOccupancy,
				"link %s->%s: allocator %s vs model %s",
				ck.p.Mesh.Node(l.From).Name, ck.p.Mesh.Node(l.To).Name, got, want)
		}
	}
}

// checkRouterTables compares every router slot table with the model:
// reserved slots must select the predicted input, unreserved slots must
// be idle.
func (ck *Checker) checkRouterTables(cycle uint64, conns []*core.Connection) {
	type key struct {
		r    topology.NodeID
		out  int
		slot int
	}
	want := make(map[key]int)
	for _, e := range ck.m.RouterEntries(conns) {
		for _, s := range e.Mask.Slots() {
			want[key{e.Router, e.Out, s}] = e.In
		}
	}
	for _, id := range ck.p.Mesh.Nodes() {
		if id.Kind != topology.Router {
			continue
		}
		r := ck.p.Routers[id.ID]
		t := r.Table()
		for out := 0; out < t.NumOutputs(); out++ {
			for s := 0; s < ck.m.wheel; s++ {
				wantIn, reserved := want[key{id.ID, out, s}]
				if !reserved {
					wantIn = slots.NoInput
				}
				if got := t.Input(out, s); got != wantIn {
					ck.violate(cycle, CheckTable,
						"router %s out %d slot %d: input %d, model %d",
						id.Name, out, s, got, wantIn)
				}
			}
		}
	}
}

// checkNITables compares every NI slot table with the model's schedule.
func (ck *Checker) checkNITables(cycle uint64, conns []*core.Connection) {
	want := ck.m.NITables(conns)
	for _, id := range ck.p.Mesh.AllNIs {
		n := ck.p.NIs[id]
		sched, ok := want[id]
		if !ok {
			sched = &NISchedule{}
		}
		t := n.Table()
		for s := 0; s < ck.m.wheel; s++ {
			wantTX, wantRX := slots.NoChannel, slots.NoChannel
			if len(sched.Send) > 0 {
				wantTX, wantRX = sched.Send[s], sched.Recv[s]
			}
			if got := t.Entry(s).TX; got != wantTX {
				ck.violate(cycle, CheckTable,
					"ni %s slot %d: tx channel %d, model %d",
					ck.p.Mesh.Node(id).Name, s, got, wantTX)
			}
			if got := t.Entry(s).RX; got != wantRX {
				ck.violate(cycle, CheckTable,
					"ni %s slot %d: rx channel %d, model %d",
					ck.p.Mesh.Node(id).Name, s, got, wantRX)
			}
		}
	}
}

// checkCredits verifies end-to-end credit conservation for every open
// unicast connection: the source credit counter, the words in flight
// (lifetime tx minus rx since the baseline), the receive queue and the
// unreturned-delivery counter partition the receive queue capacity, so
// their sum never exceeds it; credits in flight only lower the sum.
func (ck *Checker) checkCredits(cycle uint64, conns []*core.Connection) {
	depth := ck.p.Params.RecvQueueDepth
	for _, c := range conns {
		if c.State != core.Open || c.Tree != nil {
			continue
		}
		base, ok := ck.bases[c.ID]
		if !ok {
			continue // opened since the last Resync; not yet armed
		}
		src, dst := ck.p.NI(c.Spec.Src), ck.p.NI(c.Spec.Dst)
		credit := src.Credit(c.SrcChannel)
		if credit > depth {
			ck.violate(cycle, CheckCredit,
				"conn %d: source credit %d exceeds queue capacity %d",
				c.ID, credit, depth)
			continue
		}
		inflight := int(src.TxWords(c.SrcChannel)-base.tx) - int(dst.RxWords(c.DstChannel)-base.rx)
		sum := credit + inflight +
			(dst.RecvLen(c.DstChannel) - base.recv) +
			(dst.DeliveredCredits(c.DstChannel) - base.delivered)
		if sum > depth {
			ck.violate(cycle, CheckCredit,
				"conn %d: credit sum %d exceeds queue capacity %d (credit=%d inflight=%d)",
				c.ID, sum, depth, credit, inflight)
		}
	}
}

// checkMulticastDrops verifies line-rate consumption at multicast
// destinations: without end-to-end flow control the sink must keep up,
// so the destination NI's drop counter may never grow.
func (ck *Checker) checkMulticastDrops(cycle uint64, conns []*core.Connection) {
	for _, c := range conns {
		if c.Tree == nil || c.State == core.Closed {
			continue
		}
		for d := range c.Tree.DestDepth {
			base, ok := ck.dropBase[d]
			if !ok {
				continue
			}
			if got := ck.p.NI(d).Dropped(); got > base {
				ck.violate(cycle, CheckMulticast,
					"multicast dst %s dropped %d words (consumer below line rate)",
					ck.p.Mesh.Node(d).Name, got-base)
				ck.dropBase[d] = got
			}
		}
	}
}

// CheckNow forces one structural pass at the current cycle regardless
// of the sampling cadence and grace window (the caller vouches the
// platform is quiescent).
func (ck *Checker) CheckNow() {
	ck.structural(ck.p.Cycle())
}
