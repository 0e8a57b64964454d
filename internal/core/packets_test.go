package core

import (
	"fmt"
	"strings"
	"testing"

	"daelite/internal/cfgproto"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// TestPacketStreamGolden pins the exact configuration word stream each
// kind of transaction drives onto the tree roots — the wire format is an
// interface contract (a real daelite host would be programmed against
// it), so any change must be deliberate. Each row runs a sequence of
// transactions; every transaction's line lists, per region, the words
// its module transmitted, with "|" at each inter-packet gap.
func TestPacketStreamGolden(t *testing.T) {
	pipelined := func(stages int) func(m *topology.Mesh) {
		return func(m *topology.Mesh) {
			for _, l := range m.Links() {
				if m.Node(l.From).Kind == topology.Router && m.Node(l.To).Kind == topology.Router {
					m.Graph.SetPipeline(l.ID, stages)
				}
			}
		}
	}
	type op struct {
		name string
		do   func(p *Platform, conns map[string]*Connection) error
	}
	open := func(name string, spec func(m *topology.Mesh) ConnectionSpec) op {
		return op{"open " + name, func(p *Platform, conns map[string]*Connection) error {
			c, err := p.Open(spec(p.Mesh))
			conns[name] = c
			return err
		}}
	}
	closeConn := func(name string) op {
		return op{"close " + name, func(p *Platform, conns map[string]*Connection) error { return p.Close(conns[name]) }}
	}
	graft := func(name string, x, y int) op {
		return op{fmt.Sprintf("graft %s %d,%d", name, x, y), func(p *Platform, conns map[string]*Connection) error {
			return p.AddMulticastDestination(conns[name], p.Mesh.NI(x, y, 0))
		}}
	}
	prune := func(name string, x, y int) op {
		return op{fmt.Sprintf("prune %s %d,%d", name, x, y), func(p *Platform, conns map[string]*Connection) error {
			return p.RemoveMulticastDestination(conns[name], p.Mesh.NI(x, y, 0))
		}}
	}
	unicast := func(sx, sy, dx, dy, n int) func(m *topology.Mesh) ConnectionSpec {
		return func(m *topology.Mesh) ConnectionSpec {
			return ConnectionSpec{Src: m.NI(sx, sy, 0), Dst: m.NI(dx, dy, 0), SlotsFwd: n}
		}
	}
	tree := func(sx, sy, n int, dsts ...[2]int) func(m *topology.Mesh) ConnectionSpec {
		return func(m *topology.Mesh) ConnectionSpec {
			spec := ConnectionSpec{Src: m.NI(sx, sy, 0), SlotsFwd: n}
			for _, d := range dsts {
				spec.Dsts = append(spec.Dsts, m.NI(d[0], d[1], 0))
			}
			return spec
		}
	}
	for _, tc := range []struct {
		name      string
		w, h      int
		wheel     int
		maxRegion int
		shape     func(m *topology.Mesh)
		ops       []op
		want      string
	}{
		{
			// NI(1,0) [element 3] -> NI(0,1) [element 5].
			name: "unicast", w: 2, h: 2,
			ops: []op{open("a", unicast(1, 0, 0, 1, 2)), closeConn("a")},
			want: `
open a: r0: 15 00 30 06 20 02 08 00 0a 01 01 05 60 | 15 00 10 05 20 01 08 00 11 02 01 06 60 | 24 05 20 20 06 20 20 05 00 01 06 00 01 |
close a: r0: 15 00 30 06 00 02 38 00 3a 01 39 05 40 | 15 00 10 05 00 01 38 00 39 02 39 06 40 | 25 05 00 00 06 00 00 05 20 00 06 20 00 06 40 00 |
`,
		},
		{
			name: "multicast", w: 3, h: 3, wheel: 16,
			ops: []op{open("t", tree(1, 1, 2, [2]int{2, 0}, [2]int{0, 2}, [2]int{2, 2})), closeConn("t")},
			want: `
open t: r0: 15 00 00 30 0b 20 02 08 01 1a 04 01 0d 60 | 14 00 00 30 0f 20 06 08 03 13 04 02 | 14 00 00 30 11 20 08 08 05 13 04 03 | 24 0d 00 03 0b 00 01 0f 00 01 11 00 01 |
close t: r0: 15 00 00 30 0b 00 02 38 01 3a 04 39 0d 40 | 14 00 00 30 0f 00 06 38 03 3b 04 3a | 14 00 00 30 11 00 08 38 05 3b 04 3b | 27 0d 00 00 0b 00 00 0b 40 00 0f 00 00 0f 40 00 11 00 00 11 40 00 |
`,
		},
		{
			name: "graft and prune over pipelined links", w: 3, h: 3, wheel: 16, shape: pipelined(1),
			ops: []op{
				open("t", tree(1, 1, 2, [2]int{2, 0})),
				graft("t", 2, 2), graft("t", 0, 2), prune("t", 2, 2),
			},
			want: `
open t: r0: 17 00 01 40 0b 20 02 08 7f 00 01 1a 7f 00 04 01 0d 60 | 22 0d 00 03 0b 00 01 |
graft t 2,2: r0: 16 00 01 40 11 20 08 08 7f 00 05 13 7f 00 04 03 | 21 11 00 01 |
graft t 0,2: r0: 16 00 01 40 0f 20 06 08 7f 00 03 13 7f 00 04 02 | 21 0f 00 01 |
prune t 2,2: r0: 16 00 01 40 11 00 08 38 7f 00 05 3b 7f 00 04 3b | 21 11 00 00 |
`,
		},
		{
			name: "pipelined link", w: 3, h: 1, wheel: 16, shape: pipelined(2),
			ops: []op{open("a", unicast(0, 0, 2, 0, 2)), closeConn("a")},
			want: `
open a: r0: 19 00 06 00 05 20 02 08 7f 00 7f 00 01 0a 7f 00 7f 00 00 01 03 60 | 19 00 02 00 03 20 00 08 7f 00 7f 00 01 11 7f 00 7f 00 02 01 05 60 | 24 03 20 20 05 20 20 03 00 01 05 00 01 |
close a: r0: 19 00 06 00 05 00 02 38 7f 00 7f 00 01 3a 7f 00 7f 00 00 39 03 40 | 19 00 02 00 03 00 00 38 7f 00 7f 00 01 39 7f 00 7f 00 02 39 05 40 | 25 03 00 00 05 00 00 03 20 00 05 20 00 05 40 00 |
`,
		},
		{
			name: "two regions", w: 4, h: 4, maxRegion: 20,
			ops: []op{
				open("a", unicast(0, 0, 3, 3, 2)), closeConn("a"),
				open("t", tree(0, 1, 1, [2]int{3, 0}, [2]int{1, 3})),
			},
			want: `
open a: r0: 41 00 13 00 0c 01 0a 00 01 08 60 | 41 00 13 00 01 08 20 00 08 01 11 | 41 00 22 08 20 20 08 00 01 |; r1: 41 01 16 00 03 0f 20 07 08 05 0b 03 0b 01 0a 00 0a | 41 01 16 00 20 00 11 01 11 03 19 05 19 07 01 0f 60 | 41 01 22 0f 20 20 0f 00 01 |
close a: r0: 41 00 13 00 0c 01 3a 00 39 08 40 | 41 00 13 00 01 08 00 00 38 01 39 | 41 00 22 08 00 00 08 20 00 |; r1: 41 01 16 00 03 0f 00 07 38 05 3b 03 3b 01 3a 00 3a | 41 01 16 00 20 00 39 01 39 03 39 05 39 07 39 0f 40 | 41 01 23 0f 00 00 0f 20 00 0f 40 00 |
open t: r0: 41 00 14 00 08 01 0a 00 11 02 01 0a 60 | 41 00 15 00 20 0f 20 07 08 05 0c 03 14 02 02 | 41 00 22 0a 00 03 0f 00 01 |; r1: 41 01 13 00 40 09 20 01 08 00 0a | 41 01 21 09 00 01 |
`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := topology.NewMesh(topology.MeshSpec{Width: tc.w, Height: tc.h, NIsPerRouter: 1})
			if err != nil {
				t.Fatal(err)
			}
			if tc.shape != nil {
				tc.shape(m)
			}
			params := DefaultParams()
			if tc.wheel != 0 {
				params.Wheel = tc.wheel
			}
			params.MaxRegionElements = tc.maxRegion
			p, err := NewPlatform(m, params, m.NI(0, 0, 0))
			if err != nil {
				t.Fatal(err)
			}
			if tc.maxRegion != 0 && p.Regions.Num() < 2 {
				t.Fatalf("platform built %d region(s), want >= 2", p.Regions.Num())
			}
			conns := map[string]*Connection{}
			var sb strings.Builder
			for _, o := range tc.ops {
				if err := o.do(p, conns); err != nil {
					t.Fatalf("%s: %v", o.name, err)
				}
				fmt.Fprintf(&sb, "%s: %s\n", o.name, settleRecording(t, p))
			}
			if got := sb.String(); got != strings.TrimLeft(tc.want, "\n") {
				t.Fatalf("wire format drifted:\n got:\n%s want:\n%s", got, strings.TrimLeft(tc.want, "\n"))
			}
		})
	}
}

// settleRecording runs the platform until its configuration settles and
// returns the words every region's module drove onto its tree root, one
// "rN: ..." group per region that sent anything.
func settleRecording(t *testing.T, p *Platform) string {
	t.Helper()
	n := p.Config.NumRegions()
	streams := make([]strings.Builder, n)
	sending := make([]bool, n)
	record := func() {
		for r := 0; r < n; r++ {
			w := p.Config.Region(r).RootWire().Get()
			if w.Valid {
				fmt.Fprintf(&streams[r], "%02x ", w.Bits)
			} else if sending[r] {
				streams[r].WriteString("| ")
			}
			sending[r] = w.Valid
		}
	}
	if _, ok := p.Sim.RunUntil(func() bool { record(); return !p.Config.Busy() }, 100000); !ok {
		t.Fatal("configuration did not drain")
	}
	for i := uint64(0); i < p.ConfigSettleCycles(); i++ {
		p.Run(1)
		record()
	}
	if _, err := p.CompleteConfig(100000); err != nil {
		t.Fatal(err)
	}
	var groups []string
	for r := range streams {
		if streams[r].Len() > 0 {
			groups = append(groups, fmt.Sprintf("r%d: %s", r, strings.TrimSpace(streams[r].String())))
		}
	}
	return strings.Join(groups, "; ")
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
