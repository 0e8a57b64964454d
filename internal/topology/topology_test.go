package topology

import (
	"testing"
	"testing/quick"
)

func mustMesh(t *testing.T, w, h, nis int) *Mesh {
	t.Helper()
	m, err := NewMesh(MeshSpec{Width: w, Height: h, NIsPerRouter: nis})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMeshCounts(t *testing.T) {
	cases := []struct {
		w, h, nis              int
		wantNodes, wantLinks   int
		wantRouterArityCorner  int
		wantRouterArityCentral int
	}{
		// 2x2 mesh, 1 NI each: 4 routers + 4 NIs; links: 4 NI pairs (8)
		// + 4 mesh edges (8) = 16 directed.
		{2, 2, 1, 8, 16, 3, 3},
		// 3x3 mesh: 9+9 nodes; edges: 9 NI pairs (18) + 12 mesh edges
		// (24) = 42.
		{3, 3, 1, 18, 42, 3, 5},
		// 4x4: 16+16; 16 NI pairs (32) + 24 edges (48) = 80.
		{4, 4, 1, 32, 80, 3, 5},
	}
	for _, c := range cases {
		m := mustMesh(t, c.w, c.h, c.nis)
		if got := m.NumNodes(); got != c.wantNodes {
			t.Errorf("%dx%d nodes = %d, want %d", c.w, c.h, got, c.wantNodes)
		}
		if got := m.NumLinks(); got != c.wantLinks {
			t.Errorf("%dx%d links = %d, want %d", c.w, c.h, got, c.wantLinks)
		}
		if got := m.Arity(m.Router(0, 0)); got != c.wantRouterArityCorner {
			t.Errorf("%dx%d corner arity = %d, want %d", c.w, c.h, got, c.wantRouterArityCorner)
		}
		cx, cy := c.w/2, c.h/2
		if got := m.Arity(m.Router(cx, cy)); got != c.wantRouterArityCentral {
			t.Errorf("%dx%d central arity = %d, want %d", c.w, c.h, got, c.wantRouterArityCentral)
		}
	}
}

func TestMeshInvalid(t *testing.T) {
	if _, err := NewMesh(MeshSpec{Width: 0, Height: 2, NIsPerRouter: 1}); err == nil {
		t.Fatal("0-width mesh accepted")
	}
	if _, err := NewMesh(MeshSpec{Width: 2, Height: 2, NIsPerRouter: -1}); err == nil {
		t.Fatal("negative NIs accepted")
	}
}

func TestBidiPairing(t *testing.T) {
	m := mustMesh(t, 2, 2, 1)
	for _, l := range m.Links() {
		r, ok := m.Reverse(l.ID)
		if !ok {
			t.Fatalf("link %d has no reverse", l.ID)
		}
		rl := m.Link(r)
		if rl.From != l.To || rl.To != l.From {
			t.Fatalf("reverse of %v is %v", l, rl)
		}
		rr, _ := m.Reverse(r)
		if rr != l.ID {
			t.Fatalf("reverse not involutive: %d -> %d -> %d", l.ID, r, rr)
		}
	}
}

func TestShortestPathProperties(t *testing.T) {
	m := mustMesh(t, 4, 4, 1)
	nis := m.AllNIs
	for _, a := range nis {
		for _, b := range nis {
			p := m.ShortestPath(a, b)
			if a == b {
				if len(p) != 0 {
					t.Fatalf("self path not empty")
				}
				continue
			}
			if p == nil {
				t.Fatalf("no path %d->%d in connected mesh", a, b)
			}
			if err := m.ValidatePath(p); err != nil {
				t.Fatal(err)
			}
			nodes := m.PathNodes(p)
			if nodes[0] != a || nodes[len(nodes)-1] != b {
				t.Fatalf("path endpoints wrong: %v", nodes)
			}
			// Manhattan distance between routers + 2 NI hops.
			na, nb := m.Node(a), m.Node(b)
			man := abs(na.X-nb.X) + abs(na.Y-nb.Y)
			want := man + 2
			if len(p) != want {
				t.Fatalf("path %d->%d len=%d want %d", a, b, len(p), want)
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestDistanceMatchesPathLen(t *testing.T) {
	m := mustMesh(t, 3, 2, 1)
	f := func(ai, bi uint8) bool {
		a := m.AllNIs[int(ai)%len(m.AllNIs)]
		b := m.AllNIs[int(bi)%len(m.AllNIs)]
		d := m.Distance(a, b)
		p := m.ShortestPath(a, b)
		return d == len(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimplePaths(t *testing.T) {
	m := mustMesh(t, 3, 3, 1)
	a := m.NI(0, 0, 0)
	b := m.NI(2, 2, 0)
	min := m.Distance(a, b)
	paths, _ := m.SimplePathsAvoidingDense(a, b, min, 0, nil)
	// In a 3x3 mesh between opposite corners there are C(4,2)=6 shortest
	// router paths.
	if len(paths) != 6 {
		t.Fatalf("shortest simple paths = %d, want 6", len(paths))
	}
	for _, p := range paths {
		if len(p) != min {
			t.Fatalf("path length %d, want %d", len(p), min)
		}
		if err := m.ValidatePath(p); err != nil {
			t.Fatal(err)
		}
		seen := map[NodeID]bool{}
		for _, n := range m.PathNodes(p) {
			if seen[n] {
				t.Fatalf("path revisits node %d", n)
			}
			seen[n] = true
		}
	}
	// Longer detours appear when maxLen grows.
	more, _ := m.SimplePathsAvoidingDense(a, b, min+2, 0, nil)
	if len(more) <= len(paths) {
		t.Fatalf("allowing detours found %d paths, want > %d", len(more), len(paths))
	}
	// Limit caps the result deterministically.
	capped, truncated := m.SimplePathsAvoidingDense(a, b, min+2, 3, nil)
	if len(capped) != 3 || !truncated {
		t.Fatalf("limit ignored: got %d", len(capped))
	}
	for i := range capped {
		if len(capped[i]) != len(more[i]) {
			t.Fatalf("capped enumeration not a prefix")
		}
	}
}

func TestBFSTreeCoversAll(t *testing.T) {
	m := mustMesh(t, 4, 4, 1)
	root, err := m.ConfigRoot(m.NI(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	tree := m.BFSTree(root)
	if tree.Size() != m.NumNodes() {
		t.Fatalf("tree covers %d of %d nodes", tree.Size(), m.NumNodes())
	}
	// Depth must be the BFS distance from the root.
	for _, n := range m.Nodes() {
		want := m.Distance(root, n.ID)
		if tree.Depth[n.ID] != want {
			t.Fatalf("depth[%d] = %d, want %d", n.ID, tree.Depth[n.ID], want)
		}
	}
	// Every non-root node has a parent one level up.
	for _, n := range m.Nodes() {
		if n.ID == root {
			continue
		}
		p, ok := tree.Parent[n.ID]
		if !ok {
			t.Fatalf("node %d has no parent", n.ID)
		}
		if tree.Depth[p] != tree.Depth[n.ID]-1 {
			t.Fatalf("parent depth mismatch at %d", n.ID)
		}
	}
	// PathToRoot terminates at root and has Depth+1 entries.
	for _, n := range m.Nodes() {
		path := tree.PathToRoot(n.ID)
		if len(path) != tree.Depth[n.ID]+1 {
			t.Fatalf("PathToRoot(%d) len %d, want %d", n.ID, len(path), tree.Depth[n.ID]+1)
		}
		if path[len(path)-1] != root {
			t.Fatalf("PathToRoot(%d) does not end at root", n.ID)
		}
	}
	// Max depth of a 4x4 mesh rooted at a corner router: farthest NI is
	// at distance 3+3+1 = 7.
	if got := tree.MaxDepth(); got != 7 {
		t.Fatalf("MaxDepth = %d, want 7", got)
	}
}

func TestConfigRootRejectsRouter(t *testing.T) {
	m := mustMesh(t, 2, 2, 1)
	if _, err := m.ConfigRoot(m.Router(0, 0)); err == nil {
		t.Fatal("ConfigRoot accepted a router")
	}
}

func TestTorusWrapLinks(t *testing.T) {
	flat := mustMesh(t, 4, 4, 1)
	torus, err := NewMesh(MeshSpec{Width: 4, Height: 4, NIsPerRouter: 1, Wrap: true})
	if err != nil {
		t.Fatal(err)
	}
	if torus.NumLinks() <= flat.NumLinks() {
		t.Fatalf("torus links %d not greater than mesh links %d", torus.NumLinks(), flat.NumLinks())
	}
	// Opposite corners are closer on the torus.
	a, b := torus.NI(0, 0, 0), torus.NI(3, 3, 0)
	if d := torus.Distance(a, b); d != 2+2 {
		t.Fatalf("torus corner distance = %d, want 4", d)
	}
}

func TestRing(t *testing.T) {
	r, err := NewRing(6)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumNodes() != 12 {
		t.Fatalf("ring nodes = %d", r.NumNodes())
	}
	a, b := r.AllNIs[0], r.AllNIs[3]
	if d := r.Distance(a, b); d != 3+2 {
		t.Fatalf("ring distance = %d, want 5", d)
	}
	if _, err := NewRing(1); err == nil {
		t.Fatal("1-node ring accepted")
	}
}

func TestFindNode(t *testing.T) {
	m := mustMesh(t, 2, 2, 1)
	id, ok := m.FindNode("R10")
	if !ok || id != m.Router(1, 0) {
		t.Fatalf("FindNode(R10) = %d %v", id, ok)
	}
	if _, ok := m.FindNode("nope"); ok {
		t.Fatal("found nonexistent node")
	}
}

func TestPortNumberingDense(t *testing.T) {
	m := mustMesh(t, 3, 3, 1)
	for _, n := range m.Nodes() {
		outs := m.Out(n.ID)
		for i, l := range outs {
			if m.Link(l).FromPort != i {
				t.Fatalf("node %d output port %d holds link with FromPort %d", n.ID, i, m.Link(l).FromPort)
			}
		}
		ins := m.In(n.ID)
		for i, l := range ins {
			if m.Link(l).ToPort != i {
				t.Fatalf("node %d input port %d holds link with ToPort %d", n.ID, i, m.Link(l).ToPort)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if Router.String() != "router" || NI.String() != "ni" {
		t.Fatal("Kind.String broken")
	}
	if Kind(9).String() != "kind(9)" {
		t.Fatal("unknown Kind.String broken")
	}
}

func TestSpidergon(t *testing.T) {
	sg, err := NewSpidergon(8)
	if err != nil {
		t.Fatal(err)
	}
	if sg.NumNodes() != 16 {
		t.Fatalf("nodes = %d", sg.NumNodes())
	}
	// Router degree: NI + 2 ring + 1 cross = 4.
	for i := 0; i < 8; i++ {
		if got := sg.Arity(sg.RouterAt[0][i]); got != 4 {
			t.Fatalf("router %d arity = %d, want 4", i, got)
		}
	}
	// The cross link halves the diameter: opposite NIs are NI-R, cross,
	// R-NI = 3 links apart instead of 6.
	if d := sg.Distance(sg.AllNIs[0], sg.AllNIs[4]); d != 3 {
		t.Fatalf("opposite distance = %d, want 3", d)
	}
	// Quarter-way-around nodes: min(ring 2, cross 1 + ring 2) = 4 links
	// including the two NI links.
	if d := sg.Distance(sg.AllNIs[0], sg.AllNIs[2]); d != 4 {
		t.Fatalf("quarter distance = %d, want 4", d)
	}
	if _, err := NewSpidergon(5); err == nil {
		t.Fatal("odd spidergon accepted")
	}
	if _, err := NewSpidergon(2); err == nil {
		t.Fatal("tiny spidergon accepted")
	}
}

func TestPipelineAccessors(t *testing.T) {
	m := mustMesh(t, 2, 2, 1)
	l := m.Links()[0].ID
	if m.Pipeline(l) != 0 || m.SlotAdvance(l) != 1 {
		t.Fatal("fresh link not standard")
	}
	m.SetPipeline(l, 3)
	if m.Pipeline(l) != 3 || m.SlotAdvance(l) != 4 {
		t.Fatal("pipeline not recorded")
	}
	p := m.ShortestPath(m.Link(l).From, m.Link(l).To)
	if m.PathSlotAdvance(p) != 4 {
		t.Fatalf("path advance = %d", m.PathSlotAdvance(p))
	}
	m.SetPipeline(l, 0)
	if m.Pipeline(l) != 0 {
		t.Fatal("pipeline not cleared")
	}
	m.SetPipeline(l, -2)
	if m.Pipeline(l) != 0 {
		t.Fatal("negative stages not clamped")
	}
}

func TestShortestPathAvoiding(t *testing.T) {
	m := mustMesh(t, 3, 3, 1)
	g := m.Graph
	src, dst := m.Router(0, 0), m.Router(2, 0)
	direct := g.ShortestPath(src, dst)
	if len(direct) != 2 {
		t.Fatalf("direct path length = %d, want 2", len(direct))
	}
	// Avoiding the first hop forces a detour of equal or +2 length that
	// skips it.
	avoid := make([]bool, g.NumLinks())
	avoid[direct[0]] = true
	p := g.ShortestPathAvoidingDense(src, dst, avoid)
	if p == nil {
		t.Fatal("no avoiding path found")
	}
	for _, l := range p {
		if avoid[l] {
			t.Fatalf("path uses avoided link %d", l)
		}
	}
	if err := g.ValidatePath(p); err != nil {
		t.Fatal(err)
	}
	if d := g.DistanceAvoidingDense(src, dst, avoid); d != len(p) {
		t.Fatalf("DistanceAvoidingDense = %d, path len = %d", d, len(p))
	}
	// Empty avoid set falls back to plain shortest path.
	if got := g.ShortestPathAvoidingDense(src, dst, nil); len(got) != len(direct) {
		t.Fatalf("nil-avoid length = %d, want %d", len(got), len(direct))
	}
	// Cutting every outgoing link isolates the node.
	all := make([]bool, g.NumLinks())
	for _, l := range g.Out(src) {
		all[l] = true
	}
	if p := g.ShortestPathAvoidingDense(src, dst, all); p != nil {
		t.Fatalf("path found out of isolated node: %v", p)
	}
	if d := g.DistanceAvoidingDense(src, dst, all); d != -1 {
		t.Fatalf("DistanceAvoidingDense from isolated node = %d, want -1", d)
	}
}
