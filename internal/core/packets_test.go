package core

import (
	"fmt"
	"strings"
	"testing"

	"daelite/internal/cfgproto"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// TestPacketStreamGolden pins the exact configuration word stream of a
// known connection — the wire format is an interface contract (a real
// daelite host would be programmed against it), so any change must be
// deliberate.
func TestPacketStreamGolden(t *testing.T) {
	p := newTestPlatform(t, 2, 2, DefaultParams())
	// NI(1,0) [element 3] -> NI(0,1) [element 5] via R10 [2] and R00/R11.
	c, err := p.Open(ConnectionSpec{Src: p.Mesh.NI(1, 0, 0), Dst: p.Mesh.NI(0, 1, 0), SlotsFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the packets deterministically from the allocation.
	fwd, err := p.unicastPackets(c.Fwd, c.SrcChannel, c.DstChannel, true)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, pkt := range fwd {
		if pkt.region != 0 {
			t.Fatalf("single-region platform produced a packet for region %d", pkt.region)
		}
		for _, w := range pkt.words {
			fmt.Fprintf(&sb, "%02x ", w.Bits)
		}
		sb.WriteString("| ")
	}
	got := strings.TrimSpace(sb.String())
	// header(op=1,count=5) = 0x15; mask {4,7}->... depends on slots
	// assigned; pin the whole stream.
	const want = "15 00 30 06 20 02 08 00 0a 01 01 05 60 |"
	if got != want {
		t.Fatalf("wire format drifted:\n got  %s\n want %s", got, want)
	}
}

// TestPadElementNeverAssigned: platforms must never hand out the reserved
// padding element ID. 128 elements used to be a hard error; with
// hierarchical config regions the platform splits into two regions whose
// local ID spaces both stay clear of 127.
func TestPadElementNeverAssigned(t *testing.T) {
	m, err := topology.NewMesh(topology.MeshSpec{Width: 8, Height: 8, NIsPerRouter: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(m, DefaultParams(), m.NI(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Regions.Num(); got < 2 {
		t.Fatalf("8x8 platform (128 elements) built %d region(s), want >= 2", got)
	}
	for _, n := range m.Nodes() {
		if p.Regions.LocalID(n.ID) >= 127 {
			t.Fatalf("node %s assigned reserved local ID %d", n.Name, p.Regions.LocalID(n.ID))
		}
	}
	// A column that cannot fit any region is still a hard error: with
	// NIsPerRouter=1 an 8-high column holds 16 elements.
	params := DefaultParams()
	params.MaxRegionElements = 8
	if _, err := NewPlatform(m, params, m.NI(0, 0, 0)); err == nil {
		t.Fatal("column larger than the region capacity accepted")
	}
}

// TestGlobalNode127IsConfigured: past one region, global node ID 127 is a
// real element whose region-local ID differs, and its set-up pair must
// reach the wire — it used to be mistaken for a padding pair and dropped,
// leaving a connection that settled and carried nothing.
func TestGlobalNode127IsConfigured(t *testing.T) {
	for _, tc := range []struct {
		name           string
		spec           topology.MeshSpec
		sx, sy, dx, dy int
		node           func(m *topology.Mesh) topology.NodeID
	}{
		{"torus16x16 through router 15,7",
			topology.MeshSpec{Width: 16, Height: 16, NIsPerRouter: 1, Wrap: true}, 14, 7, 0, 7,
			func(m *topology.Mesh) topology.NodeID { return m.Router(15, 7) }},
		{"mesh8x8 ending at NI 7,7",
			topology.MeshSpec{Width: 8, Height: 8, NIsPerRouter: 1}, 5, 7, 7, 7,
			func(m *topology.Mesh) topology.NodeID { return m.NI(7, 7, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewMeshPlatform(tc.spec, DefaultParams(), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if id := tc.node(p.Mesh); id != cfgproto.PadElement {
				t.Fatalf("node has global ID %d, want %d", id, cfgproto.PadElement)
			}
			c := openUnicast(t, p, tc.sx, tc.sy, tc.dx, tc.dy, 2)
			visits := false
			for _, l := range c.Fwd.Paths[0].Path {
				visits = visits || p.Mesh.Graph.Link(l).To == cfgproto.PadElement
			}
			if !visits {
				t.Fatalf("forward path %v does not visit node %d", c.Fwd.Paths[0].Path, cfgproto.PadElement)
			}
			const offered = 64
			src := traffic.NewSource(p.Sim, "src", p.NI(c.Spec.Src), c.SrcChannel,
				traffic.SourceConfig{Pattern: traffic.CBR, Rate: 0.2, Limit: offered, Seed: 1})
			sink := traffic.NewSink(p.Sim, "sink", p.NI(c.Spec.Dst), c.DstChannel)
			p.Run(4000)
			if src.Sent() != offered || sink.Received() != offered {
				t.Fatalf("offered %d words, sent %d, delivered %d", offered, src.Sent(), sink.Received())
			}
		})
	}
}
