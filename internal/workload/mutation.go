package workload

import (
	"fmt"

	"daelite/internal/conformance"
	"daelite/internal/telemetry"
)

// MutationSmoke proves the pack-as-test machinery can actually see
// corruption: it opens the pack's first broadcast-capable phase on a
// healthy cycle-accurate platform, then flips a programmed slot-table
// entry on a tree (or path) link, the harness's FlipDrill.
// The conformance checkers must report table/contention violations; a
// harness that cannot see a planted flip proves nothing about real ones.
// Returns the violation count observed after the flip.
func MutationSmoke(c *Compiled) (uint64, error) {
	if len(c.Phases) == 0 {
		return 0, fmt.Errorf("workload: pack %s has no phases", c.Name())
	}
	// Prefer a broadcast phase — the flip must land during a multicast —
	// and fall back to the first phase for packs without one.
	ph := &c.Phases[0]
	for i := range c.Phases {
		if c.Phases[i].Kind == "broadcast" {
			ph = &c.Phases[i]
			break
		}
	}

	p, err := c.BuildPlatform(false)
	if err != nil {
		return 0, err
	}
	ck := conformance.Attach(p, telemetry.NewRegistry(), conformance.Options{SampleEvery: 32, LineRate: true})
	conns, err := openPhase(p, ph)
	if err != nil {
		return 0, err
	}
	// The flip targets a router's slot table, so the corrupted hop must
	// be router-owned (the first tree edge is the NI's injection link).
	victim := conformance.Victim(p, conns)
	if victim < 0 {
		return 0, fmt.Errorf("workload: pack %s: no routed link to corrupt", c.Name())
	}
	ck.Resync()
	p.Run(256)
	if ck.Violations() != 0 {
		return 0, fmt.Errorf("workload: healthy phase reported %d violations before the flip", ck.Violations())
	}
	caught, err := conformance.FlipDrill(p, ck, c.Spec.Seed, victim, 512)
	if err != nil {
		return 0, err
	}
	if caught == 0 {
		return 0, fmt.Errorf("workload: planted slot-table flip on link %d went undetected", victim)
	}
	return caught, nil
}
