package core

import (
	"slices"
	"strings"
	"testing"

	"daelite/internal/alloc"
	"daelite/internal/cfgproto"
	"daelite/internal/sim"
	"daelite/internal/topology"
)

// heldChannels counts the NI channels the platform has handed out.
func heldChannels(p *Platform) int {
	n := 0
	for _, used := range p.channelsUsed {
		n += len(used)
	}
	return n
}

// TestFailedSubmitLeaksNothing overfills the configuration module's
// staging queue with one batch: the items that do not fit must fail
// without leaving slots, channels or half a transaction behind, and a
// close that does not fit must leave its connection intact.
func TestFailedSubmitLeaksNothing(t *testing.T) {
	params := DefaultParams()
	params.Wheel = 64
	p, err := NewMeshPlatform(topology.MeshSpec{Width: 4, Height: 4, NIsPerRouter: 2}, params, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	nis := p.Mesh.AllNIs
	specs := make([]ConnectionSpec, 192)
	for i := range specs {
		src := nis[rng.Intn(len(nis))]
		dst := src
		for dst == src {
			dst = nis[rng.Intn(len(nis))]
		}
		specs[i] = ConnectionSpec{Src: src, Dst: dst, SlotsFwd: 1 + rng.Intn(2)}
	}
	conns, errs := p.OpenBatch(specs)
	var live []*Connection
	full := 0
	for i, err := range errs {
		switch {
		case err == nil:
			live = append(live, conns[i])
		case strings.Contains(err.Error(), "staging queue full"):
			full++
		}
	}
	if full == 0 {
		t.Fatalf("no item of %d overflowed the staging queue; the test no longer exercises a failed submit", len(specs))
	}
	if _, err := p.CompleteConfig(1_000_000); err != nil {
		t.Fatal(err)
	}

	// Back to back, without draining: a close that does not fit fails
	// whole, staging nothing and keeping its connection.
	var kept []*Connection
	for _, c := range live {
		staged := p.Config.Region(0).QueueLen()
		if err := p.Close(c); err != nil {
			if c.State == Closed || p.connections[c.ID] != c {
				t.Fatalf("failed close of connection %d dropped it: %v", c.ID, err)
			}
			if now := p.Config.Region(0).QueueLen(); now != staged {
				t.Fatalf("failed close of connection %d staged %d words: %v", c.ID, now-staged, err)
			}
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		t.Fatal("every back-to-back close fit; the test no longer exercises a failed close")
	}
	if _, err := p.CompleteConfig(1_000_000); err != nil {
		t.Fatal(err)
	}
	for _, c := range kept {
		if err := p.Close(c); err != nil {
			t.Fatalf("close of connection %d after draining: %v", c.ID, err)
		}
		if _, err := p.CompleteConfig(1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	if slots, chans, n := p.Alloc.TotalSlotsUsed(), heldChannels(p), len(p.connections); slots != 0 || chans != 0 || n != 0 {
		t.Fatalf("after closing everything: %d slots, %d channels, %d connections still held", slots, chans, n)
	}
}

// connSlots is the link-slot occupancy connection c's reservation holds.
func connSlots(c *Connection) int {
	if c.Tree != nil {
		return c.Tree.InjectSlots.Count() * len(c.Tree.Edges)
	}
	n := 0
	for _, u := range []*alloc.Unicast{c.Fwd, c.Rev} {
		for _, pa := range u.Paths {
			n += pa.InjectSlots.Count() * len(pa.Path)
		}
	}
	return n
}

// connChannels is the number of NI channels connection c holds.
func connChannels(c *Connection) int {
	if c.Tree != nil {
		return 1 + len(c.DstChannels)
	}
	return 2
}

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// FuzzConfigTransactions drives random opens, batches, closes, grafts
// and prunes on small meshes with a pipelined link and small
// configuration regions, optionally with a region's staging queue
// stuffed first so the transaction may not fit. A failed operation must
// leave the reserved slots, the held NI channels and the staged words
// exactly as they were; after every settled operation the slots and
// channels held equal what the live connections account for, and once
// everything is closed both are zero.
func FuzzConfigTransactions(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := sim.NewRNG(seed)
		data := make([]byte, 200)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		w, h, nis := 2+in.next(2), 2+in.next(2), 1+in.next(2)
		m, err := topology.NewMesh(topology.MeshSpec{Width: w, Height: h, NIsPerRouter: nis})
		if err != nil {
			t.Fatal(err)
		}
		var routerLinks []topology.LinkID
		for _, l := range m.Links() {
			if m.Node(l.From).Kind == topology.Router && m.Node(l.To).Kind == topology.Router {
				routerLinks = append(routerLinks, l.ID)
			}
		}
		m.Graph.SetPipeline(routerLinks[in.next(len(routerLinks))], 1+in.next(2))
		params := DefaultParams()
		params.Wheel = []int{8, 16}[in.next(2)]
		params.NumChannels = 2 + in.next(3)
		if column := h * (1 + nis); in.next(2) == 1 {
			params.MaxRegionElements = column * (1 + in.next(2)) // one or two columns a region
		}
		p, err := NewPlatform(m, params, m.NI(0, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		nodes := m.AllNIs
		ni := func() topology.NodeID { return nodes[in.next(len(nodes))] }
		other := func(n topology.NodeID) topology.NodeID {
			i := slices.Index(nodes, n)
			return nodes[(i+1+in.next(len(nodes)-1))%len(nodes)]
		}
		spec := func() ConnectionSpec {
			s := ConnectionSpec{Src: ni(), SlotsFwd: 1 + in.next(3)}
			if in.next(3) > 0 {
				s.Dst = other(s.Src)
				return s
			}
			for k := 1 + in.next(3); k > 0; k-- {
				if d := other(s.Src); !slices.Contains(s.Dsts, d) {
					s.Dsts = append(s.Dsts, d)
				}
			}
			return s
		}
		live := func() []*Connection {
			var cs []*Connection
			for _, c := range p.connections {
				cs = append(cs, c)
			}
			slices.SortFunc(cs, func(a, b *Connection) int { return a.ID - b.ID })
			return cs
		}
		trees := func() []*Connection {
			var cs []*Connection
			for _, c := range live() {
				if c.Tree != nil {
					cs = append(cs, c)
				}
			}
			return cs
		}
		staged := func() []int {
			q := make([]int, p.Config.NumRegions())
			for r := range q {
				q[r] = p.Config.Region(r).QueueLen()
			}
			return q
		}
		// stuff fills region r's staging queue up to room words short
		// of full with writes to the padding element, which no element
		// decodes.
		stuff := func(r, room int) {
			fill := make([]cfgproto.RegWrite, cfgproto.MaxPairs)
			for i := range fill {
				fill[i] = cfgproto.RegWrite{Element: cfgproto.PadElement}
			}
			for n := cfgproto.MaxPairs; n > 0; {
				words, err := cfgproto.WriteRegPacket(fill[:n])
				if err != nil {
					t.Fatal(err)
				}
				need := make([]int, p.Config.NumRegions())
				need[r] = p.Config.WireWords(r, len(words)) + room
				if p.Config.Fits(need) != nil {
					n--
					continue
				}
				if _, err := p.Config.Submit(r, words); err != nil {
					t.Fatal(err)
				}
			}
		}

		for step := 0; step < 24 && len(in) > 0; step++ {
			if in.next(3) == 0 {
				stuff(in.next(p.Config.NumRegions()), in.next(128))
			}
			slotsBefore, chansBefore, stagedBefore := p.Alloc.TotalSlotsUsed(), heldChannels(p), staged()
			var err error
			op := in.next(6)
			switch op {
			case 0:
				_, err = p.Open(spec())
			case 1:
				specs := make([]ConnectionSpec, 1+in.next(6))
				for i := range specs {
					specs[i] = spec()
				}
				p.OpenBatch(specs)
			case 2:
				if cs := live(); len(cs) > 0 {
					c := cs[in.next(len(cs))]
					if err = p.Close(c); err != nil && (c.State == Closed || p.connections[c.ID] != c) {
						t.Fatalf("step %d: failed close dropped connection %d: %v", step, c.ID, err)
					}
				}
			case 3:
				if cs := trees(); len(cs) > 0 {
					err = p.AddMulticastDestination(cs[in.next(len(cs))], ni())
				}
			case 4:
				if cs := trees(); len(cs) > 0 {
					c := cs[in.next(len(cs))]
					err = p.RemoveMulticastDestination(c, c.Spec.Dsts[in.next(len(c.Spec.Dsts))])
				}
			}
			if err != nil {
				if s, ch := p.Alloc.TotalSlotsUsed(), heldChannels(p); s != slotsBefore || ch != chansBefore {
					t.Fatalf("step %d: failed op %d moved slots %d -> %d, channels %d -> %d: %v", step, op, slotsBefore, s, chansBefore, ch, err)
				}
				if q := staged(); !slices.Equal(q, stagedBefore) {
					t.Fatalf("step %d: failed op %d staged words %v -> %v: %v", step, op, stagedBefore, q, err)
				}
			}
			if _, err := p.CompleteConfig(1_000_000); err != nil {
				t.Fatal(err)
			}
			wantSlots, wantChans := 0, 0
			for _, c := range p.connections {
				wantSlots += connSlots(c)
				wantChans += connChannels(c)
			}
			if s, ch := p.Alloc.TotalSlotsUsed(), heldChannels(p); s != wantSlots || ch != wantChans {
				t.Fatalf("step %d (op %d): %d slots and %d channels held, live connections account for %d and %d", step, op, s, ch, wantSlots, wantChans)
			}
		}
		for _, c := range live() {
			if err := p.Close(c); err != nil {
				t.Fatalf("final close of connection %d: %v", c.ID, err)
			}
		}
		if _, err := p.CompleteConfig(1_000_000); err != nil {
			t.Fatal(err)
		}
		if s, ch := p.Alloc.TotalSlotsUsed(), heldChannels(p); s != 0 || ch != 0 {
			t.Fatalf("after closing everything: %d slots and %d channels held", s, ch)
		}
	})
}
