package core

import (
	"testing"

	"daelite/internal/alloc"
	"daelite/internal/cfgproto"
	"daelite/internal/phit"
	"daelite/internal/slots"
	"daelite/internal/topology"
	"daelite/internal/traffic"
)

// TestReadbackOverReversePath exercises the full read path: host ->
// forward tree -> element -> converging reverse path -> host module.
func TestReadbackOverReversePath(t *testing.T) {
	p := newTestPlatform(t, 3, 3, DefaultParams())
	c := openUnicast(t, p, 0, 0, 2, 2, 2)

	// The source credit counter right after set-up equals the remote
	// queue capacity.
	credit, err := p.ReadCredit(c.Spec.Src, c.SrcChannel, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if credit != p.Params.RecvQueueDepth {
		t.Fatalf("remote credit read = %d, want %d", credit, p.Params.RecvQueueDepth)
	}
	flags, err := p.ReadFlags(c.Spec.Dst, c.DstChannel, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if flags&cfgproto.FlagOpen == 0 {
		t.Fatalf("destination flags = %#x, FlagOpen missing", flags)
	}
	// Send a few words without consuming: the credit counter visibly
	// drops, observable remotely.
	src := p.NI(c.Spec.Src)
	for i := 0; i < 5; i++ {
		src.Send(c.SrcChannel, phit.Word(i))
	}
	p.Run(200)
	credit2, err := p.ReadCredit(c.Spec.Src, c.SrcChannel, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if credit2 != credit-5 {
		t.Fatalf("credit after 5 unconsumed words = %d, want %d", credit2, credit-5)
	}
	// Reading a router register yields an error (no response).
	if _, err := p.ReadRegister(p.Mesh.Router(1, 1), 0, 4000); err == nil {
		t.Fatal("router register read produced a response")
	}
}

// TestLinkActivityMatchesAllocation probes every data wire of a loaded
// platform for several wheels and checks that valid flits appear ONLY in
// slots the allocator reserved — the strongest form of the contention-free
// invariant, tying the cycle model to the allocation algebra.
func TestLinkActivityMatchesAllocation(t *testing.T) {
	p := newTestPlatform(t, 3, 3, DefaultParams())
	var conns []*Connection
	pairs := [][4]int{{0, 0, 2, 2}, {1, 0, 1, 2}, {2, 0, 0, 2}, {0, 1, 2, 1}}
	for _, q := range pairs {
		c, err := p.Open(ConnectionSpec{
			Src: p.Mesh.NI(q[0], q[1], 0), Dst: p.Mesh.NI(q[2], q[3], 0), SlotsFwd: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	if _, err := p.CompleteConfig(100000); err != nil {
		t.Fatal(err)
	}

	// Expected slot usage per link, from the allocations (both
	// directions of every connection).
	wheel := p.Params.Wheel
	expected := make(map[topology.LinkID]slots.Mask)
	addAlloc := func(c *Connection) {
		for _, u := range []*alloc.Unicast{c.Fwd, c.Rev} {
			for _, pa := range u.Paths {
				for k, l := range pa.Path {
					m, ok := expected[l]
					if !ok {
						m = slots.NewMask(wheel)
					}
					expected[l] = m.Union(pa.InjectSlots.RotateUp(k))
				}
			}
		}
	}
	for _, c := range conns {
		addAlloc(c)
	}

	// Attach traffic to every connection.
	for i, c := range conns {
		traffic.NewSource(p.Sim, "vsrc", p.NI(c.Spec.Src), c.SrcChannel,
			traffic.SourceConfig{Pattern: traffic.CBR, Rate: 0.12, Seed: uint64(i + 1)})
		sink := traffic.NewSink(p.Sim, "vsink", p.NI(c.Spec.Dst), c.DstChannel)
		_ = sink
	}

	// Probe every data wire each cycle.
	type wireRef struct {
		link topology.LinkID
		wire *flitWire
	}
	var wires []wireRef
	for _, l := range p.Mesh.Links() {
		wires = append(wires, wireRef{link: l.ID, wire: p.LinkWire(p.Mesh.Link(l.ID))})
	}
	slotWords := p.Params.SlotWords
	violations := 0
	p.Sim.AddProbe(func(cycle uint64) {
		// After the step completing cycle c the committed wire values
		// are those presented during cycle c+1 == the probe argument.
		slot := slots.SlotOfCycle(cycle, slotWords, wheel)
		for _, w := range wires {
			f := w.wire.Get()
			if !f.Valid && !f.CreditValid {
				continue
			}
			exp, ok := expected[w.link]
			if !ok || !exp.Has(slot) {
				violations++
			}
		}
	})
	p.Run(2000)
	if violations != 0 {
		t.Fatalf("%d flit observations outside allocated slots", violations)
	}
}

// TestTorusPlatform verifies the full stack on a wrap-around topology.
func TestTorusPlatform(t *testing.T) {
	params := DefaultParams()
	params.Wheel = 16
	m, err := topology.NewMesh(topology.MeshSpec{Width: 3, Height: 3, NIsPerRouter: 1, Wrap: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(m, params, m.NI(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Opposite corners are 2 hops apart on a 3x3 torus.
	c, err := p.Open(ConnectionSpec{Src: m.NI(0, 0, 0), Dst: m.NI(2, 2, 0), SlotsFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 100000); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Fwd.Paths[0].Path); got != 4 {
		t.Fatalf("torus path length = %d, want 4 (wrap links used)", got)
	}
	p.NI(c.Spec.Src).Send(c.SrcChannel, 0x7035)
	p.Run(64)
	if d, ok := p.NI(c.Spec.Dst).Recv(c.DstChannel); !ok || d.Word != 0x7035 {
		t.Fatal("torus delivery failed")
	}
}

// TestMultiNIPerRouter verifies platforms with two NIs per router.
func TestMultiNIPerRouter(t *testing.T) {
	params := DefaultParams()
	params.Wheel = 16
	m, err := topology.NewMesh(topology.MeshSpec{Width: 2, Height: 2, NIsPerRouter: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(m, params, m.NI(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Two NIs of the same router talk to each other (2-link path
	// through their shared router).
	c, err := p.Open(ConnectionSpec{Src: m.NI(1, 1, 0), Dst: m.NI(1, 1, 1), SlotsFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 100000); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Fwd.Paths[0].Path); got != 2 {
		t.Fatalf("local path length = %d, want 2", got)
	}
	p.NI(c.Spec.Src).Send(c.SrcChannel, 0x251)
	p.Run(32)
	if d, ok := p.NI(c.Spec.Dst).Recv(c.DstChannel); !ok || d.Word != 0x251 {
		t.Fatal("same-router delivery failed")
	}
}

// TestSpidergonPlatform runs the full stack on a Spidergon.
func TestSpidergonPlatform(t *testing.T) {
	sg, err := topology.NewSpidergon(8)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Wheel = 16
	p, err := NewPlatform(sg, params, sg.AllNIs[0])
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Open(ConnectionSpec{Src: sg.AllNIs[1], Dst: sg.AllNIs[5], SlotsFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 100000); err != nil {
		t.Fatal(err)
	}
	// Opposite nodes use the cross link: 3-link path.
	if got := len(c.Fwd.Paths[0].Path); got != 3 {
		t.Fatalf("spidergon path = %d links, want 3 (cross link)", got)
	}
	p.NI(c.Spec.Src).Send(c.SrcChannel, 0x5D15)
	p.Run(48)
	if d, ok := p.NI(c.Spec.Dst).Recv(c.DstChannel); !ok || d.Word != 0x5D15 {
		t.Fatal("spidergon delivery failed")
	}
}

// TestCorruptedTableIsDetectable deliberately corrupts a router slot
// table after set-up and verifies the misrouted traffic is observable —
// the negative control for the contention-free verification machinery.
func TestCorruptedTableIsDetectable(t *testing.T) {
	p := newTestPlatform(t, 2, 2, DefaultParams())
	c := openUnicast(t, p, 0, 0, 1, 1, 2)
	src, dst := p.NI(c.Spec.Src), p.NI(c.Spec.Dst)

	// Healthy first.
	src.Send(c.SrcChannel, 0x900D)
	p.Run(64)
	if d, ok := dst.Recv(c.DstChannel); !ok || d.Word != 0x900D {
		t.Fatal("healthy path broken")
	}

	// Corrupt: clear the first router's table entirely.
	firstHop := p.Mesh.Graph.Link(c.Fwd.Paths[0].Path[1]).From
	r := p.Router(firstHop)
	for o := 0; o < r.Table().NumOutputs(); o++ {
		full := r.Table().OccupiedMask(o)
		if !full.Empty() {
			_ = r.Table().Set(o, full, -1)
		}
	}
	src.Send(c.SrcChannel, 0xBAD)
	p.Run(128)
	if got := dst.RecvLen(c.DstChannel); got != 0 {
		t.Fatalf("corrupted table still delivered %d words", got)
	}
}

// TestPipelinedLink exercises mesochronous/long-link support (the paper's
// stated future-work direction): a link with extra register stages shifts
// connections by additional slots; the allocator accounts for it and the
// configuration packets carry padding pairs for the extra rotations.
func TestPipelinedLink(t *testing.T) {
	params := DefaultParams()
	params.Wheel = 16
	m, err := topology.NewMesh(topology.MeshSpec{Width: 3, Height: 1, NIsPerRouter: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Make the central router-router links long: 2 extra stages each
	// direction.
	for _, l := range m.Links() {
		from, to := m.Node(l.From), m.Node(l.To)
		if from.Kind == topology.Router && to.Kind == topology.Router {
			m.Graph.SetPipeline(l.ID, 2)
		}
	}
	p, err := NewPlatform(m, params, m.NI(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Open(ConnectionSpec{Src: m.NI(0, 0, 0), Dst: m.NI(2, 0, 0), SlotsFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 100000); err != nil {
		t.Fatal(err)
	}
	// Path: NI-R00, R00-R10 (pipelined), R10-R20 (pipelined), R20-NI =
	// slot advance 1+3+3+1 = 8; latency 2 cycles per standard stage plus
	// 2 per extra stage: 2*4 + 2*4 = 16.
	src, dst := p.NI(c.Spec.Src), p.NI(c.Spec.Dst)
	for i := 0; i < 8; i++ {
		src.Send(c.SrcChannel, phit.Word(0x600+i))
		p.Run(64)
	}
	p.Run(200)
	if got := dst.RecvLen(c.DstChannel); got != 8 {
		t.Fatalf("delivered %d of 8 over pipelined links", got)
	}
	for i := 0; i < 8; i++ {
		d, _ := dst.Recv(c.DstChannel)
		if d.Word != phit.Word(0x600+i) {
			t.Fatalf("word %d corrupted: %#x", i, uint32(d.Word))
		}
		if lat := d.Cycle - d.Tag.InjectCycle; lat != 16 {
			t.Fatalf("latency = %d, want 16 (2 extra slots per long link)", lat)
		}
	}
	// Reverse direction works too (credits crossed the long links).
	dst.Send(c.DstChannel, 0x716)
	p.Run(200)
	if d, ok := src.Recv(c.SrcChannel); !ok || d.Word != 0x716 {
		t.Fatal("reverse direction over pipelined links failed")
	}
	// Teardown over pipelined links releases cleanly.
	if err := p.Close(c); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CompleteConfig(100000); err != nil {
		t.Fatal(err)
	}
	if got := p.Alloc.TotalSlotsUsed(); got != 0 {
		t.Fatalf("slots leaked after pipelined teardown: %d", got)
	}
}

// TestMulticastOverPipelinedLinks combines the two hardest configuration
// paths: a multicast tree crossing long links, requiring padding pairs in
// the middle of tree segments.
func TestMulticastOverPipelinedLinks(t *testing.T) {
	params := DefaultParams()
	params.Wheel = 16
	m, err := topology.NewMesh(topology.MeshSpec{Width: 3, Height: 3, NIsPerRouter: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Pipeline every router-router link by one stage.
	for _, l := range m.Links() {
		if m.Node(l.From).Kind == topology.Router && m.Node(l.To).Kind == topology.Router {
			m.Graph.SetPipeline(l.ID, 1)
		}
	}
	p, err := NewPlatform(m, params, m.NI(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	dsts := []topology.NodeID{m.NI(2, 0, 0), m.NI(0, 2, 0), m.NI(2, 2, 0)}
	c, err := p.Open(ConnectionSpec{Src: m.NI(1, 1, 0), Dsts: dsts, SlotsFwd: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AwaitOpen(c, 200000); err != nil {
		t.Fatal(err)
	}
	src := p.NI(c.Spec.Src)
	received := make(map[topology.NodeID]int)
	sent := 0
	for sent < 20 {
		if src.Send(c.SrcChannel, phit.Word(0x3C0+sent)) {
			sent++
		}
		p.Run(8)
		for _, d := range dsts {
			for {
				dv, ok := p.NI(d).Recv(c.DstChannels[d])
				if !ok {
					break
				}
				if dv.Word != phit.Word(0x3C0+received[d]) {
					t.Fatalf("dest %v corrupted at %d", m.Node(d).Name, received[d])
				}
				received[d]++
			}
		}
	}
	p.Run(400)
	for _, d := range dsts {
		for {
			dv, ok := p.NI(d).Recv(c.DstChannels[d])
			if !ok {
				break
			}
			if dv.Word != phit.Word(0x3C0+received[d]) {
				t.Fatalf("dest %v corrupted at %d", m.Node(d).Name, received[d])
			}
			received[d]++
		}
		if received[d] != 20 {
			t.Fatalf("dest %v received %d of 20 over pipelined tree", m.Node(d).Name, received[d])
		}
	}
}

// TestConfigFaultRecovery injects a corrupted configuration word stream
// (bit-flipped packet) and verifies the platform survives: the garbage is
// confined, the decoders return to idle, and a subsequently issued correct
// set-up works — reconfiguration is the recovery mechanism.
func TestConfigFaultRecovery(t *testing.T) {
	p := newTestPlatform(t, 2, 2, DefaultParams())

	// Build a valid set-up packet for channel 7 (unused by anything
	// else) and corrupt its mask and one pair word.
	src, dst := p.Mesh.NI(1, 0, 0), p.Mesh.NI(0, 1, 0)
	path := p.Mesh.Graph.ShortestPath(src, dst)
	pkt := cfgproto.PathSetup{
		Mask: slots.MaskOf(8, 6),
		Pairs: []cfgproto.Pair{
			{Element: int(dst), Spec: cfgproto.NISpec(false, true, 7)},
			{Element: int(p.Mesh.Graph.Link(path[1]).From), Spec: cfgproto.RouterSpec(0, 0)},
		},
	}
	words, err := pkt.Words()
	if err != nil {
		t.Fatal(err)
	}
	words[1].Bits ^= 0x55 // corrupt the mask
	words[4].Bits ^= 0x7F // corrupt a pair word
	if err := p.Host.SubmitPacket(words); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CompleteConfig(10000); err != nil {
		t.Fatal(err)
	}

	// The platform still opens and runs a correct connection.
	c := openUnicast(t, p, 1, 0, 0, 1, 2)
	p.NI(c.Spec.Src).Send(c.SrcChannel, 0x0EC0)
	p.Run(64)
	if d, ok := p.NI(c.Spec.Dst).Recv(c.DstChannel); !ok || d.Word != 0x0EC0 {
		t.Fatal("platform did not recover from corrupted configuration")
	}
}
