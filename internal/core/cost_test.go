package core

import (
	"testing"

	"daelite/internal/alloc"
	"daelite/internal/analysis"
	"daelite/internal/cfgproto"
	"daelite/internal/topology"
)

// TestPathSetupCostMatchesBuilder pins the analytic set-up cost model to
// the real packet builder: for every path of a connection, the predicted
// packet and wire word counts (envelopes included) must equal what the
// builder emits, on single-region and forced multi-region platforms.
func TestPathSetupCostMatchesBuilder(t *testing.T) {
	for _, cap := range []int{0, 20} {
		params := DefaultParams()
		params.MaxRegionElements = cap
		p := newTestPlatform(t, 4, 4, params)
		c, err := p.Open(ConnectionSpec{Src: p.Mesh.NI(0, 0, 0), Dst: p.Mesh.NI(3, 3, 0), SlotsFwd: 2})
		if err != nil {
			t.Fatal(err)
		}
		g := p.Mesh.Graph
		regionOf := func(n topology.NodeID) int { return p.Regions.Of(n) }
		num := p.Regions.Num()
		if cap == 20 && num < 2 {
			t.Fatalf("cap %d produced %d region(s), want >= 2", cap, num)
		}

		pred := analysis.UnicastSetupCost(g, c.Fwd, p.Params.Wheel, regionOf, num).
			Add(analysis.UnicastSetupCost(g, c.Rev, p.Params.Wheel, regionOf, num))

		measure := func(u *alloc.Unicast, srcCh, dstCh int) (packets, words int) {
			p.resetTx()
			if err := p.buildUnicast(u, srcCh, dstCh, true); err != nil {
				t.Fatal(err)
			}
			for _, pkt := range p.tx.packets {
				packets++
				words += pkt.to - pkt.from
				if num > 1 {
					words += 1 + cfgproto.RegionSelectWords(pkt.region)
				}
			}
			return
		}
		fp, fw := measure(c.Fwd, c.SrcChannel, c.DstChannel)
		rp, rw := measure(c.Rev, c.DstChannel, c.SrcChannel)

		if pred.Packets != fp+rp || pred.Words != fw+rw {
			t.Fatalf("cap %d: predicted %d packets / %d words, builder emitted %d / %d",
				cap, pred.Packets, pred.Words, fp+rp, fw+rw)
		}
	}
}
