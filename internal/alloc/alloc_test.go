package alloc

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"daelite/internal/sim"
	"daelite/internal/slots"
	"daelite/internal/topology"
)

func mesh(t testing.TB, w, h int) *topology.Mesh {
	t.Helper()
	m, err := topology.NewMesh(topology.MeshSpec{Width: w, Height: h, NIsPerRouter: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestUnicastBasic(t *testing.T) {
	m := mesh(t, 2, 2)
	a := New(m.Graph, 8)
	src, dst := m.NI(0, 0, 0), m.NI(1, 1, 0)
	u, err := a.Unicast(src, dst, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Paths) != 1 {
		t.Fatalf("paths = %d", len(u.Paths))
	}
	if got := u.SlotCount(); got != 2 {
		t.Fatalf("slots = %d", got)
	}
	if len(u.Paths[0].Path) != 4 { // NI-R, R-R, R-R, R-NI
		t.Fatalf("path length = %d, want 4", len(u.Paths[0].Path))
	}
	if err := Verify(m.Graph, 8, []*Unicast{u}, nil); err != nil {
		t.Fatal(err)
	}
	// DestSlots = inject slots rotated by path length.
	want := u.Paths[0].InjectSlots.RotateUp(4)
	if u.Paths[0].DestSlots(m.Graph) != want {
		t.Fatal("DestSlots mismatch")
	}
}

func TestUnicastValidation(t *testing.T) {
	m := mesh(t, 2, 2)
	a := New(m.Graph, 8)
	ni := m.NI(0, 0, 0)
	if _, err := a.Unicast(ni, ni, 1, Options{}); err == nil {
		t.Fatal("self-connection accepted")
	}
	if _, err := a.Unicast(ni, m.NI(1, 0, 0), 0, Options{}); err == nil {
		t.Fatal("zero slots accepted")
	}
}

func TestUnicastExhaustion(t *testing.T) {
	m := mesh(t, 2, 2)
	a := New(m.Graph, 4)
	src, dst := m.NI(0, 0, 0), m.NI(1, 0, 0)
	// The NI-router link has 4 slots total.
	if _, err := a.Unicast(src, dst, 4, Options{}); err != nil {
		t.Fatal(err)
	}
	_, err := a.Unicast(src, m.NI(0, 1, 0), 1, Options{})
	if err == nil {
		t.Fatal("overcommitted source NI link")
	}
	if _, ok := err.(ErrNoCapacity); !ok {
		t.Fatalf("error type %T", err)
	}
}

func TestReleaseRestoresCapacity(t *testing.T) {
	m := mesh(t, 2, 2)
	a := New(m.Graph, 4)
	src, dst := m.NI(0, 0, 0), m.NI(1, 0, 0)
	u, err := a.Unicast(src, dst, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSlotsUsed() == 0 {
		t.Fatal("no occupancy recorded")
	}
	a.ReleaseUnicast(u)
	if a.TotalSlotsUsed() != 0 {
		t.Fatalf("occupancy leaked: %d", a.TotalSlotsUsed())
	}
	if _, err := a.Unicast(src, dst, 4, Options{}); err != nil {
		t.Fatalf("capacity not restored: %v", err)
	}
}

// TestSlotPipelineLaw pins the +1-slot-per-link law: two connections
// crossing the same link in different positions of their paths must not
// collide when their wheel-aligned slots differ.
func TestSlotPipelineLaw(t *testing.T) {
	m := mesh(t, 3, 1)
	a := New(m.Graph, 8)
	// Connection 1: NI0 -> NI2 (through R0, R1, R2).
	u1, err := a.Unicast(m.NI(0, 0, 0), m.NI(2, 0, 0), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Connection 2: NI1 -> NI2 shares link R1->R2 and R2->NI2.
	u2, err := a.Unicast(m.NI(1, 0, 0), m.NI(2, 0, 0), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(m.Graph, 8, []*Unicast{u1, u2}, nil); err != nil {
		t.Fatal(err)
	}
	// Check the actual wheel slots on the shared link differ.
	shared := func(u *Unicast) (topology.LinkID, slots.Mask, bool) {
		for k, l := range u.Paths[0].Path {
			link := m.Graph.Link(l)
			if m.Graph.Node(link.From).Name == "R10" && m.Graph.Node(link.To).Name == "R20" {
				return l, u.Paths[0].InjectSlots.RotateUp(k), true
			}
		}
		return 0, slots.Mask{}, false
	}
	l1, s1, ok1 := shared(u1)
	l2, s2, ok2 := shared(u2)
	if !ok1 || !ok2 || l1 != l2 {
		t.Fatal("connections do not share the expected link")
	}
	if s1.Overlaps(s2) {
		t.Fatalf("shared link double-booked: %v vs %v", s1.Slots(), s2.Slots())
	}
}

func TestMultipathBeatsSinglePath(t *testing.T) {
	m := mesh(t, 3, 3)
	wheel := 8
	src, dst := m.NI(0, 0, 0), m.NI(2, 2, 0)

	single := New(m.Graph, wheel)
	_, errSingle := single.Unicast(src, dst, wheel, Options{}) // whole wheel on one path: impossible beyond NI link? NI link has 8 slots, OK
	multi := New(m.Graph, wheel)
	// Occupy one router-router link of the preferred path in both
	// allocators to force a bottleneck.
	block := func(a *Allocator) {
		// Claim 6 of 8 slots on each outgoing router link of R00,
		// with different masks so the two residual windows map to
		// disjoint injection slots at the source NI.
		i := 0
		for _, l := range m.Graph.Out(m.Router(0, 0)) {
			to := m.Graph.Link(l).To
			if m.Graph.Node(to).Kind != topology.Router {
				continue
			}
			if i == 0 {
				a.setLinkBits(l, slots.MaskOf(wheel, 0, 1, 2, 3, 4, 5).Bits)
			} else {
				a.setLinkBits(l, slots.MaskOf(wheel, 2, 3, 4, 5, 6, 7).Bits)
			}
			i++
		}
	}
	_ = errSingle
	single2 := New(m.Graph, wheel)
	block(single2)
	block(multi)
	// 4 slots demanded; each R00 outgoing link has only 2 free.
	if _, err := single2.Unicast(src, dst, 4, Options{MaxDetour: 2}); err == nil {
		t.Fatal("single path satisfied demand beyond any single link's capacity")
	}
	u, err := multi.Unicast(src, dst, 4, Options{Multipath: true, MaxDetour: 2, MaxPaths: 8})
	if err != nil {
		t.Fatalf("multipath failed: %v", err)
	}
	if len(u.Paths) < 2 {
		t.Fatalf("multipath used %d paths", len(u.Paths))
	}
	if u.SlotCount() != 4 {
		t.Fatalf("slots = %d", u.SlotCount())
	}
	if err := Verify(m.Graph, wheel, []*Unicast{u}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulticastTreeSharesPrefix(t *testing.T) {
	m := mesh(t, 3, 3)
	a := New(m.Graph, 8)
	src := m.NI(0, 0, 0)
	dsts := []topology.NodeID{m.NI(2, 0, 0), m.NI(2, 2, 0)}
	mc, err := a.Multicast(src, dsts, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Tree must reserve the source NI link exactly once (2 slots), not
	// per destination.
	srcLink := m.Graph.Out(src)[0]
	if got := a.LinkOccupancy(srcLink).Count(); got != 2 {
		t.Fatalf("source link slots = %d, want 2 (tree must share)", got)
	}
	// Separate unicast connections would need 4.
	b := New(m.Graph, 8)
	for _, d := range dsts {
		if _, err := b.Unicast(src, d, 2, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.LinkOccupancy(srcLink).Count(); got != 4 {
		t.Fatalf("unicast source link slots = %d, want 4", got)
	}
	if err := Verify(m.Graph, 8, nil, []*Multicast{mc}); err != nil {
		t.Fatal(err)
	}
	// Destination slots follow each destination's depth.
	for _, d := range dsts {
		want := mc.InjectSlots.RotateUp(mc.DestDepth[d])
		if mc.DestSlots(d) != want {
			t.Fatal("DestSlots mismatch")
		}
	}
}

func TestMulticastValidation(t *testing.T) {
	m := mesh(t, 2, 2)
	a := New(m.Graph, 8)
	src := m.NI(0, 0, 0)
	if _, err := a.Multicast(src, nil, 1); err == nil {
		t.Fatal("no destinations accepted")
	}
	if _, err := a.Multicast(src, []topology.NodeID{src}, 1); err == nil {
		t.Fatal("src as destination accepted")
	}
	if _, err := a.Multicast(src, []topology.NodeID{m.NI(1, 0, 0)}, 0); err == nil {
		t.Fatal("zero slots accepted")
	}
}

func TestMulticastRelease(t *testing.T) {
	m := mesh(t, 3, 3)
	a := New(m.Graph, 8)
	src := m.NI(0, 0, 0)
	dsts := []topology.NodeID{m.NI(2, 0, 0), m.NI(0, 2, 0), m.NI(2, 2, 0)}
	mc, err := a.Multicast(src, dsts, 3)
	if err != nil {
		t.Fatal(err)
	}
	a.ReleaseMulticast(mc)
	if a.TotalSlotsUsed() != 0 {
		t.Fatalf("occupancy leaked: %d", a.TotalSlotsUsed())
	}
}

// TestRandomAllocationsContentionFree is the E11 property test: any
// sequence of successful allocations keeps the network contention-free.
func TestRandomAllocationsContentionFree(t *testing.T) {
	m := mesh(t, 4, 4)
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		a := New(m.Graph, 16)
		var us []*Unicast
		var ms []*Multicast
		for i := 0; i < 40; i++ {
			src := m.AllNIs[rng.Intn(len(m.AllNIs))]
			switch rng.Intn(3) {
			case 0, 1:
				dst := m.AllNIs[rng.Intn(len(m.AllNIs))]
				if dst == src {
					continue
				}
				u, err := a.Unicast(src, dst, 1+rng.Intn(2), Options{Multipath: rng.Intn(2) == 0, MaxDetour: 1})
				if err == nil {
					us = append(us, u)
				}
			case 2:
				var dsts []topology.NodeID
				for len(dsts) < 2 {
					d := m.AllNIs[rng.Intn(len(m.AllNIs))]
					if d != src {
						dsts = append(dsts, d)
					}
				}
				mc, err := a.Multicast(src, dsts, 1)
				if err == nil {
					ms = append(ms, mc)
				}
			}
		}
		return Verify(m.Graph, 16, us, ms) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestChurnContentionFree allocates and releases randomly; occupancy must
// track the live set exactly.
func TestChurnContentionFree(t *testing.T) {
	m := mesh(t, 3, 3)
	rng := sim.NewRNG(99)
	a := New(m.Graph, 16)
	var live []*Unicast
	for i := 0; i < 300; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			a.ReleaseUnicast(live[k])
			live = append(live[:k], live[k+1:]...)
			continue
		}
		src := m.AllNIs[rng.Intn(len(m.AllNIs))]
		dst := m.AllNIs[rng.Intn(len(m.AllNIs))]
		if src == dst {
			continue
		}
		u, err := a.Unicast(src, dst, 1, Options{})
		if err == nil {
			live = append(live, u)
		}
		if err := Verify(m.Graph, 16, live, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range live {
		a.ReleaseUnicast(u)
	}
	if a.TotalSlotsUsed() != 0 {
		t.Fatalf("occupancy leaked after full churn: %d", a.TotalSlotsUsed())
	}
}

func TestCandidateSlotsEmptyPath(t *testing.T) {
	m := mesh(t, 2, 2)
	a := New(m.Graph, 8)
	if got := a.CandidateSlots(nil); !got.Empty() {
		t.Fatal("empty path has candidates")
	}
}

// TestPickSpreadNeverWorse: for any candidate mask and count, the spread
// pick's worst-case gap is never worse than the first-fit pick's.
func TestPickSpreadNeverWorse(t *testing.T) {
	f := func(bits uint16, n8 uint8) bool {
		cand := slots.Mask{Bits: uint64(bits), Size: 16}
		if cand.Empty() {
			return true
		}
		n := int(n8)%cand.Count() + 1
		spread := PickSpread(cand, n)
		clustered := firstN(cand, n)
		if spread.Count() != n || clustered.Count() != n {
			return false
		}
		gs := maxGapSlots(spread)
		gc := maxGapSlots(clustered)
		return gs <= gc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// maxGapSlots is the cyclic worst gap in slot positions.
func maxGapSlots(m slots.Mask) int {
	ss := m.Slots()
	if len(ss) == 0 {
		return 1 << 30
	}
	max := 0
	for i, s := range ss {
		next := ss[(i+1)%len(ss)]
		gap := next - s
		if gap <= 0 {
			gap += m.Size
		}
		if gap > max {
			max = gap
		}
	}
	return max
}

func linkBetween(t *testing.T, g *topology.Graph, a, b topology.NodeID) topology.LinkID {
	t.Helper()
	for _, l := range g.Out(a) {
		if g.Link(l).To == b {
			return l
		}
	}
	t.Fatalf("no link %d -> %d", a, b)
	return 0
}

func TestUnicastAvoidsExcludedLink(t *testing.T) {
	m := mesh(t, 2, 2)
	a := New(m.Graph, 8)
	src, dst := m.NI(0, 0, 0), m.NI(1, 0, 0)
	dead := linkBetween(t, m.Graph, m.Router(0, 0), m.Router(1, 0))
	a.ExcludeLink(dead)
	u, err := a.Unicast(src, dst, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pa := range u.Paths {
		for _, l := range pa.Path {
			if l == dead {
				t.Fatalf("allocation uses excluded link %d", dead)
			}
		}
	}
	// The detour goes around the far row: 2 extra links.
	if got := len(u.Paths[0].Path); got != 5 {
		t.Fatalf("detour path length = %d, want 5", got)
	}
	if err := Verify(m.Graph, 8, []*Unicast{u}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnicastFailsWhenCut(t *testing.T) {
	m := mesh(t, 2, 2)
	a := New(m.Graph, 8)
	src, dst := m.NI(0, 0, 0), m.NI(1, 0, 0)
	// Cut both links out of router (1,0)'s column neighbours toward it:
	// the only entries into R(1,0) besides its NI are from R(0,0) and
	// R(1,1).
	a.ExcludeLink(linkBetween(t, m.Graph, m.Router(0, 0), m.Router(1, 0)))
	a.ExcludeLink(linkBetween(t, m.Graph, m.Router(1, 1), m.Router(1, 0)))
	if _, err := a.Unicast(src, dst, 1, Options{}); err == nil {
		t.Fatal("allocation succeeded over a fully cut destination")
	}
	// Repair one link and retry.
	a.IncludeLink(linkBetween(t, m.Graph, m.Router(1, 1), m.Router(1, 0)))
	if _, err := a.Unicast(src, dst, 1, Options{}); err != nil {
		t.Fatalf("after IncludeLink: %v", err)
	}
}

// TestExclusionAppliesBeforeCap: the candidate cap keeps the first
// MaxPaths paths that avoid the excluded links, not the first MaxPaths
// paths overall. Between NI (0,0) and NI (8,8) of the 16x16 torus every
// one of the 64 lexicographically first shortest paths shares its second
// link, yet most of the 51,480 shortest paths avoid it, so excluding that
// link must leave a shortest path to allocate.
func TestExclusionAppliesBeforeCap(t *testing.T) {
	m, err := topology.NewMesh(topology.MeshSpec{Width: 16, Height: 16, NIsPerRouter: 1, Wrap: true})
	if err != nil {
		t.Fatal(err)
	}
	a := New(m.Graph, 8)
	src, dst := m.NI(0, 0, 0), m.NI(8, 8, 0)
	d := m.Distance(src, dst)
	paths, _ := m.SimplePathsAvoidingDense(src, dst, d, 1, nil)
	dead := paths[0][1]
	a.ExcludeLink(dead)
	u, err := a.Unicast(src, dst, 1, Options{})
	if err != nil {
		t.Fatalf("excluding link %d: %v", dead, err)
	}
	p := u.Paths[0].Path
	if len(p) != d {
		t.Fatalf("path length %d, want the shortest %d", len(p), d)
	}
	for _, l := range p {
		if l == dead {
			t.Fatalf("allocation uses excluded link %d", dead)
		}
	}
}

// TestDetourSearchIsBounded: a corner-to-corner multipath request on the
// 8x8 mesh with MaxDetour 8 admits every simple path of up to 24 links.
// Enumerating all of them before cutting to the cap took seconds; the
// candidate search must stop at the cap, return well within a second and
// still take the lexicographically first shortest path first.
func TestDetourSearchIsBounded(t *testing.T) {
	m := mesh(t, 8, 8)
	a := New(m.Graph, 8)
	src, dst := m.NI(0, 0, 0), m.NI(7, 7, 0)
	start := time.Now()
	u, err := a.Unicast(src, dst, 2, Options{Multipath: true, MaxDetour: 8})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Unicast took %v, want under 1s", elapsed)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got, want := u.Paths[0].Path, firstShortestPath(m.Graph, src, dst); !reflect.DeepEqual(got, want) {
		t.Fatalf("first path %v, want %v", got, want)
	}
}

// TestCacheKeepsOnlyTriedCandidates admits the benchmark's dense
// permutation, NI (x,y) to NI (x+5,y+3) of the 16x16 torus, forward and
// reverse. Every such pair has 56 shortest paths, so every entry holds
// exactly the MaxPaths candidates Unicast tries, every lookup counts a
// truncation, and no entry is a sub-slice of a longer enumeration, which
// would keep the dropped candidates alive.
func TestCacheKeepsOnlyTriedCandidates(t *testing.T) {
	m, err := topology.NewMesh(topology.MeshSpec{Width: 16, Height: 16, NIsPerRouter: 1, Wrap: true})
	if err != nil {
		t.Fatal(err)
	}
	a := New(m.Graph, 16)
	const maxPaths = 8 // Options' default
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			src, dst := m.NI(x, y, 0), m.NI((x+5)%16, (y+3)%16, 0)
			for _, pair := range [][2]topology.NodeID{{src, dst}, {dst, src}} {
				if _, err := a.Unicast(pair[0], pair[1], 1, Options{}); err != nil {
					t.Fatalf("(%d,%d): %v", x, y, err)
				}
			}
		}
	}
	if got := len(a.cache.paths); got != 2*16*16 {
		t.Fatalf("%d path-cache entries, want %d", got, 2*16*16)
	}
	for k, e := range a.cache.paths {
		if k.cap != maxPaths || len(e.paths) != maxPaths || cap(e.paths) != maxPaths || !e.truncated {
			t.Fatalf("%d->%d: cap %d, %d paths in an array of %d, truncated %v; want %d of %d, truncated",
				k.src, k.dst, k.cap, len(e.paths), cap(e.paths), e.truncated, maxPaths, maxPaths)
		}
		for _, p := range e.paths {
			if cap(p) != len(p) {
				t.Fatalf("%d->%d: path of %d links can reach %d", k.src, k.dst, len(p), cap(p))
			}
		}
	}
	if got := a.CacheStats().Truncations; got != 2*16*16 {
		t.Fatalf("%d truncations, want one per Unicast (%d)", got, 2*16*16)
	}
}

// firstShortestPath is the lexicographically first minimum-hop path from a
// to b: from each node it follows the lowest-ID out-link that stays on a
// shortest path.
func firstShortestPath(g *topology.Graph, a, b topology.NodeID) topology.Path {
	var p topology.Path
	for n := a; n != b; {
		d := g.Distance(n, b)
		for _, l := range g.Out(n) {
			if to := g.Link(l).To; g.Distance(to, b) == d-1 {
				p = append(p, l)
				n = to
				break
			}
		}
	}
	return p
}

func TestMulticastAvoidsExcludedLink(t *testing.T) {
	m := mesh(t, 2, 2)
	a := New(m.Graph, 8)
	src := m.NI(0, 0, 0)
	dsts := []topology.NodeID{m.NI(1, 0, 0), m.NI(1, 1, 0)}
	dead := linkBetween(t, m.Graph, m.Router(0, 0), m.Router(1, 0))
	a.ExcludeLink(dead)
	mc, err := a.Multicast(src, dsts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range mc.Edges {
		if e.Link == dead {
			t.Fatalf("multicast tree uses excluded link %d", dead)
		}
	}
}
