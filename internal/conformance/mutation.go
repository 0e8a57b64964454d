package conformance

// Mutation smoke mode: deliberately corrupt a healthy platform and
// assert the checkers notice. Two seeded corruptions are planted — a
// slot-table upset (via the fault injector's single-event-upset model)
// and a credit-accounting corruption (a rogue register write over the
// real configuration tree) — and each must surface as checker
// violations reported through the telemetry registry. A harness that
// cannot see planted faults proves nothing about real ones.

import (
	"fmt"

	"daelite/internal/cfgproto"
	"daelite/internal/core"
	"daelite/internal/fault"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
)

// MutationResult reports what the checkers caught.
type MutationResult struct {
	// SlotTableViolations counts table/contention violations observed
	// after the seeded slot-table upset.
	SlotTableViolations uint64
	// CreditViolations counts credit-conservation violations observed
	// after the seeded credit corruption.
	CreditViolations uint64
	// Events counts conformance violation events in the registry.
	Events int
}

// Detected reports whether both corruptions were caught.
func (m MutationResult) Detected() bool {
	return m.SlotTableViolations > 0 && m.CreditViolations > 0
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
	link := p.Mesh.Graph.Link(c.Fwd.Paths[0].Path[1]) // first router-owned hop
	occ := p.Alloc.LinkOccupancy(link.ID)
	slot := occ.Slots()[0]
	_, err = fault.Attach(p, seed, fault.Fault{
		Kind: fault.SlotTableFlip, Router: link.From, Out: link.FromPort,
		Slot: slot, From: p.Cycle() + 8,
	})
	if err != nil {
		return res, err
	}
	p.Run(256)
	res.SlotTableViolations = ck.ViolationCount(CheckTable) + ck.ViolationCount(CheckContention)
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
	return res, nil
}
