package core

import (
	"testing"

	"daelite/internal/alloc"
	"daelite/internal/topology"
)

// TestSetupEvaluatesOnlyTheAddressed pins who is evaluated while a
// connection is set up. The configuration tree broadcasts every word to
// all 128 elements of an 8x8 mesh, but the region's module decodes the
// stream once and applies each effect straight to its element: on an
// idle platform the set-up may cost the module's evaluation in every
// cycle plus a couple of evaluations for each element a packet
// addresses (an NI woken by its flags write), and nothing for the rest.
func TestSetupEvaluatesOnlyTheAddressed(t *testing.T) {
	p := newTestPlatform(t, 8, 8, DefaultParams())
	p.Run(10) // every element evaluates once, then sleeps
	start, _ := p.Sim.Evaluations()
	from := p.Cycle()
	c, err := p.Open(ConnectionSpec{Src: p.Mesh.NI(1, 1, 0), Dst: p.Mesh.NI(4, 2, 0), SlotsFwd: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 100_000); err != nil {
		t.Fatal(err)
	}
	end, _ := p.Sim.Evaluations()
	cycles := p.Cycle() - from
	addressed := map[topology.NodeID]bool{}
	for _, u := range []*alloc.Unicast{c.Fwd, c.Rev} {
		for _, pa := range u.Paths {
			for _, l := range pa.Path {
				addressed[p.Mesh.Link(l).From] = true
				addressed[p.Mesh.Link(l).To] = true
			}
		}
	}
	bound := cycles + 2*uint64(len(addressed))
	if got := end - start; got > bound {
		t.Fatalf("set-up of %d cycles addressing %d elements made %d evaluations, want at most %d (the module each cycle, 2 per addressed element)",
			cycles, len(addressed), got, bound)
	}
	t.Logf("set-up: %d cycles, %d addressed elements, %d evaluations (bound %d)", cycles, len(addressed), end-start, bound)
}
