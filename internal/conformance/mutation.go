package conformance

// Mutation smoke mode: deliberately corrupt a healthy platform and
// assert the checkers notice. Three corruptions are planted — a seeded
// slot-table upset (via the fault injector's single-event-upset model),
// a credit-accounting corruption (a rogue register write over the real
// configuration tree) and a misrouted table entry that copies the
// connection's words onto a spare output — and each must surface as
// checker violations reported through the telemetry registry; the
// misrouted words' contention events must name their source NI and the
// spare output, and stop once the entry is removed. A
// harness that cannot see planted faults proves nothing about real ones.

import (
	"fmt"
	"strings"

	"daelite/internal/cfgproto"
	"daelite/internal/core"
	"daelite/internal/slots"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// MutationResult reports what the checkers caught.
type MutationResult struct {
	// SlotTableViolations counts table/contention violations observed
	// after the seeded slot-table upset.
	SlotTableViolations uint64
	// CreditViolations counts credit-conservation violations observed
	// after the seeded credit corruption.
	CreditViolations uint64
	// Events counts conformance violation events in the registry after
	// the slot-table upset and the credit corruption.
	Events int
	// StrayViolations counts contention violations observed after the
	// misrouted entry; StrayDetail is the first one's text.
	StrayViolations uint64
	StrayDetail     string
}

// Detected reports whether all three corruptions were caught.
func (m MutationResult) Detected() bool {
	return m.SlotTableViolations > 0 && m.CreditViolations > 0 && m.StrayViolations > 0
}

// mutationPlatform builds a small healthy platform with one open
// connection, traffic and an attached checker.
func mutationPlatform() (*core.Platform, *telemetry.Registry, *Checker, *core.Connection, error) {
	params := core.DefaultParams()
	params.RecvQueueDepth = 16 // below MaxCreditValue so an over-write is illegal
	p, err := core.NewMeshPlatform(topology.MeshSpec{Width: 3, Height: 3, NIsPerRouter: 1}, params, 0, 0)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	reg := telemetry.NewRegistry()
	ck := Attach(p, reg, Options{SampleEvery: 32, LineRate: true})
	c, err := p.Open(core.ConnectionSpec{Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(2, 2, 0), SlotsFwd: 2})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if err := p.AwaitOpen(c, 1_000_000); err != nil {
		return nil, nil, nil, nil, err
	}
	ck.Resync()
	p.Run(256)
	return p, reg, ck, c, nil
}

// MutationSmoke plants both corruptions (each on a fresh platform) and
// returns what the checkers reported. seed drives the fault injector.
func MutationSmoke(seed uint64) (MutationResult, error) {
	var res MutationResult

	// 1. Slot-table upset: clear a programmed router table entry.
	p, reg, ck, c, err := mutationPlatform()
	if err != nil {
		return res, err
	}
	if ck.Violations() != 0 {
		return res, fmt.Errorf("conformance: healthy platform reported %d violations", ck.Violations())
	}
	res.SlotTableViolations, err = FlipDrill(p, ck, seed, Victim(p, []*core.Connection{c}), 256)
	if err != nil {
		return res, err
	}
	res.Events += len(reg.Events())

	// 2. Credit-accounting corruption: a rogue write sets the source
	// credit counter far above the receive queue capacity.
	p, reg, ck, c, err = mutationPlatform()
	if err != nil {
		return res, err
	}
	if ck.Violations() != 0 {
		return res, fmt.Errorf("conformance: healthy platform reported %d violations", ck.Violations())
	}
	rogue, err := cfgproto.WriteRegPacket([]cfgproto.RegWrite{{
		Element: int(c.Spec.Src),
		Reg:     cfgproto.RegSelect(cfgproto.RegCredit, c.SrcChannel),
		Value:   62, // far above the 16-word receive queue
	}})
	if err != nil {
		return res, err
	}
	if err := p.Host.SubmitPacket(rogue); err != nil {
		return res, err
	}
	if _, err := p.CompleteConfig(100_000); err != nil {
		return res, err
	}
	p.Run(256)
	res.CreditViolations = ck.ViolationCount(CheckCredit)
	res.Events += len(reg.Events())

	// 3. Misrouted entry: the first router-owned hop also switches the
	// connection's words onto a spare output in an unreserved slot,
	// while a source streams words on the connection.
	p, _, ck, c, err = mutationPlatform()
	if err != nil {
		return res, err
	}
	traffic.NewSource(p.Sim, "mutation-src", p.NI(c.Spec.Src), c.SrcChannel,
		traffic.SourceConfig{Pattern: traffic.CBR, Rate: 0.25, Seed: seed})
	traffic.NewSink(p.Sim, "mutation-sink", p.NI(c.Spec.Dst), c.DstChannel)
	link := p.Mesh.Graph.Link(Victim(p, []*core.Connection{c}))
	slot := p.Alloc.LinkOccupancy(link.ID).Slots()[0]
	table := p.Routers[link.From].Table()
	spare := topology.LinkID(-1)
	for _, l := range p.Mesh.Graph.Out(link.From) {
		if l != link.ID && !p.Alloc.LinkOccupancy(l).Has(slot) {
			spare = l
			break
		}
	}
	if spare < 0 {
		return res, fmt.Errorf("conformance: router %s has no output free in slot %d", p.Mesh.Node(link.From).Name, slot)
	}
	sl := p.Mesh.Graph.Link(spare)
	misroute := slots.NewMask(table.Size()).With(slot)
	if err := table.Set(sl.FromPort, misroute, table.Input(link.FromPort, slot)); err != nil {
		return res, err
	}
	p.Run(256)
	res.StrayViolations = ck.ViolationCount(CheckContention)
	src := p.Mesh.Node(c.Spec.Src).Name
	onSpare := fmt.Sprintf("payload on %s->%s ", p.Mesh.Node(sl.From).Name, p.Mesh.Node(sl.To).Name)
	for _, v := range ck.Recorded() {
		if v.Check != CheckContention {
			continue
		}
		if !strings.Contains(v.Detail, onSpare) || !strings.Contains(v.Detail, "from "+src+" ") {
			return res, fmt.Errorf("conformance: stray word reported as %q, not as a word from %s on the spare output", v.Detail, src)
		}
		if res.StrayDetail == "" {
			res.StrayDetail = v.Detail
		}
	}
	// The check compares each cycle against the current reservations,
	// so removing the entry silences it, with nothing to re-arm.
	if err := table.Set(sl.FromPort, misroute, slots.NoInput); err != nil {
		return res, err
	}
	p.Run(256)
	if n := ck.ViolationCount(CheckContention) - res.StrayViolations; n != 0 {
		return res, fmt.Errorf("conformance: %d contention violations after the misrouted entry was removed", n)
	}
	return res, nil
}
