// Package topology models the structural graph of a daelite SoC: network
// elements (routers and network interfaces) connected by directed links,
// with per-element port numbering. It provides regular-topology builders
// (mesh, torus, ring), shortest-path routing queries, simple-path
// enumeration for multipath allocation, and the minimal-depth spanning tree
// used by the configuration broadcast network.
//
// Node and link IDs are dense (assigned 0,1,2,... by Add*), so all internal
// adjacency state lives in flat slices indexed by ID, and routing queries
// run against an immutable CSR-style snapshot with pooled scratch buffers —
// no per-query map or slice allocation on the hot path.
package topology

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// NodeID identifies a network element (router or NI).
type NodeID int

// LinkID identifies one directed link.
type LinkID int

// Kind distinguishes element types.
type Kind int

const (
	// Router is a daelite router with a slot table per output.
	Router Kind = iota
	// NI is a network interface with TX/RX slot tables and channel
	// queues.
	NI
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Router:
		return "router"
	case NI:
		return "ni"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is one network element.
type Node struct {
	ID   NodeID
	Kind Kind
	Name string
	// X, Y are layout coordinates (mesh position; NIs share their
	// router's coordinates). Used for reporting only.
	X, Y int
}

// Link is one directed link. FromPort/ToPort are the output port index at
// the source element and the input port index at the destination element.
type Link struct {
	ID       LinkID
	From, To NodeID
	FromPort int
	ToPort   int
}

// Graph is a directed multigraph of network elements.
type Graph struct {
	nodes []Node
	links []Link
	// out[n] lists link IDs leaving n ordered by FromPort; in[n] lists
	// link IDs entering n ordered by ToPort.
	out, in [][]LinkID
	// pair[l] is the reverse link of l for bidirectional channels (-1
	// when l has none).
	pair []LinkID
	// pipeline[l] is the number of extra register-pair stages on the
	// link (mesochronous/long-link support): each stage adds one slot
	// of latency on top of the standard hop.
	pipeline []int

	// pipeVersion counts SetPipeline mutations so the CSR snapshot can
	// detect stale slot advances.
	pipeVersion uint64
	snap        atomic.Pointer[csr]
}

// csr is an immutable CSR-style adjacency snapshot: the out-adjacency of
// node n is outLinks[heads[n]:heads[n+1]] (link IDs in port order, which is
// also ascending ID order per node) with outTo holding each link's
// destination, the in-adjacency is inLinks[inHeads[n]:inHeads[n+1]] with
// inFrom holding each link's source, and adv[l] caches SlotAdvance(l).
// Routing queries iterate it without touching the mutable Graph, so a
// snapshot taken once is safe for concurrent readers.
type csr struct {
	nodes, links int
	pipeVersion  uint64
	heads        []int32
	outLinks     []LinkID
	outTo        []NodeID
	inHeads      []int32
	inLinks      []LinkID
	inFrom       []NodeID
	adv          []int32
}

// snapshot returns the current CSR view, rebuilding it only when the graph
// grew or a pipeline stage changed since the last build.
func (g *Graph) snapshot() *csr {
	if s := g.snap.Load(); s != nil &&
		s.nodes == len(g.nodes) && s.links == len(g.links) && s.pipeVersion == g.pipeVersion {
		return s
	}
	s := &csr{
		nodes:       len(g.nodes),
		links:       len(g.links),
		pipeVersion: g.pipeVersion,
		heads:       make([]int32, len(g.nodes)+1),
		outLinks:    make([]LinkID, 0, len(g.links)),
		outTo:       make([]NodeID, 0, len(g.links)),
		inHeads:     make([]int32, len(g.nodes)+1),
		inLinks:     make([]LinkID, 0, len(g.links)),
		inFrom:      make([]NodeID, 0, len(g.links)),
		adv:         make([]int32, len(g.links)),
	}
	for n := range g.nodes {
		s.heads[n] = int32(len(s.outLinks))
		for _, l := range g.out[n] {
			s.outLinks = append(s.outLinks, l)
			s.outTo = append(s.outTo, g.links[l].To)
		}
		s.inHeads[n] = int32(len(s.inLinks))
		for _, l := range g.in[n] {
			s.inLinks = append(s.inLinks, l)
			s.inFrom = append(s.inFrom, g.links[l].From)
		}
	}
	s.heads[len(g.nodes)] = int32(len(s.outLinks))
	s.inHeads[len(g.nodes)] = int32(len(s.inLinks))
	for l := range g.links {
		s.adv[l] = int32(1 + g.pipeline[l])
	}
	g.snap.Store(s)
	return s
}

// bfsScratch is the reusable working set of one BFS/DFS query: seen is an
// epoch-stamped visited array (bumping the epoch clears it in O(1)), prev
// records the incoming link per visited node, dist the hop count of a
// distance BFS, queue is the FIFO frontier.
type bfsScratch struct {
	epoch uint64
	seen  []uint64
	prev  []LinkID
	dist  []int32
	queue []NodeID
	onCur []bool // DFS path membership; always left all-false
	cur   Path   // DFS path prefix
	found Path   // paths emitted by the DFS, concatenated
	ends  []int32
}

var scratchPool = sync.Pool{New: func() any { return &bfsScratch{} }}

// grab sizes a pooled scratch for n nodes and starts a fresh epoch.
func grab(n int) *bfsScratch {
	s := scratchPool.Get().(*bfsScratch)
	if len(s.seen) < n {
		s.seen = make([]uint64, n)
		s.prev = make([]LinkID, n)
		s.dist = make([]int32, n)
		s.onCur = make([]bool, n)
	}
	s.epoch++
	s.queue = s.queue[:0]
	return s
}

func (s *bfsScratch) release() { scratchPool.Put(s) }

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{}
}

// SetPipeline marks link l as pipelined with the given number of extra
// register-pair stages (0 restores a standard link). Long or mesochronous
// links are modeled this way: every stage adds exactly one TDM slot of
// latency, preserving contention-free scheduling.
func (g *Graph) SetPipeline(l LinkID, stages int) {
	if stages < 0 {
		stages = 0
	}
	g.pipeline[l] = stages
	g.pipeVersion++
}

// Pipeline returns the extra stage count of link l (0 for standard
// links).
func (g *Graph) Pipeline(l LinkID) int { return g.pipeline[l] }

// SlotAdvance returns how many TDM slot positions a link shifts a
// connection: one for the standard hop plus one per pipeline stage.
func (g *Graph) SlotAdvance(l LinkID) int { return 1 + g.pipeline[l] }

// PathSlotAdvance sums the slot advance over a path — the destination's
// slot offset relative to the injection slot.
func (g *Graph) PathSlotAdvance(p Path) int {
	total := 0
	for _, l := range p {
		total += g.SlotAdvance(l)
	}
	return total
}

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode(kind Kind, name string, x, y int) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Kind: kind, Name: name, X: x, Y: y})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddLink adds one directed link from a to b, assigning the next free
// output port at a and input port at b, and returns its ID.
func (g *Graph) AddLink(a, b NodeID) LinkID {
	id := LinkID(len(g.links))
	l := Link{
		ID:       id,
		From:     a,
		To:       b,
		FromPort: len(g.out[a]),
		ToPort:   len(g.in[b]),
	}
	g.links = append(g.links, l)
	g.out[a] = append(g.out[a], id)
	g.in[b] = append(g.in[b], id)
	g.pair = append(g.pair, -1)
	g.pipeline = append(g.pipeline, 0)
	return id
}

// AddBidi adds a link pair a→b and b→a and records them as each other's
// reverse. It returns both IDs.
func (g *Graph) AddBidi(a, b NodeID) (ab, ba LinkID) {
	ab = g.AddLink(a, b)
	ba = g.AddLink(b, a)
	g.pair[ab] = ba
	g.pair[ba] = ab
	return ab, ba
}

// Reverse returns the paired reverse link of l and whether one exists.
func (g *Graph) Reverse(l LinkID) (LinkID, bool) {
	r := g.pair[l]
	return r, r >= 0
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the directed-link count.
func (g *Graph) NumLinks() int { return len(g.links) }

// Nodes returns all nodes in ID order.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Links returns all links in ID order.
func (g *Graph) Links() []Link {
	out := make([]Link, len(g.links))
	copy(out, g.links)
	return out
}

// Out returns the IDs of links leaving n, ordered by output port.
func (g *Graph) Out(n NodeID) []LinkID {
	out := make([]LinkID, len(g.out[n]))
	copy(out, g.out[n])
	return out
}

// In returns the IDs of links entering n, ordered by input port.
func (g *Graph) In(n NodeID) []LinkID {
	in := make([]LinkID, len(g.in[n]))
	copy(in, g.in[n])
	return in
}

// OutDegree and InDegree return port counts; Arity is their max, matching
// the hardware notion of router arity.
func (g *Graph) OutDegree(n NodeID) int { return len(g.out[n]) }

// InDegree returns the number of input ports of n.
func (g *Graph) InDegree(n NodeID) int { return len(g.in[n]) }

// Arity returns max(in-degree, out-degree) of n.
func (g *Graph) Arity(n NodeID) int {
	if d := g.OutDegree(n); d > g.InDegree(n) {
		return d
	}
	return g.InDegree(n)
}

// FindNode returns the ID of the node with the given name.
func (g *Graph) FindNode(name string) (NodeID, bool) {
	for _, n := range g.nodes {
		if n.Name == name {
			return n.ID, true
		}
	}
	return 0, false
}

// Path is a sequence of directed links where each link starts at the node
// the previous one ended at.
type Path []LinkID

// Nodes expands a path into the node sequence it traverses.
func (g *Graph) PathNodes(p Path) []NodeID {
	if len(p) == 0 {
		return nil
	}
	nodes := []NodeID{g.links[p[0]].From}
	for _, l := range p {
		nodes = append(nodes, g.links[l].To)
	}
	return nodes
}

// ValidatePath checks link continuity.
func (g *Graph) ValidatePath(p Path) error {
	for i := 1; i < len(p); i++ {
		if g.links[p[i]].From != g.links[p[i-1]].To {
			return fmt.Errorf("topology: discontinuous path at hop %d: link %d ends at %d, link %d starts at %d",
				i, p[i-1], g.links[p[i-1]].To, p[i], g.links[p[i]].From)
		}
	}
	return nil
}

// bfs runs a BFS from a toward b over the snapshot, skipping links for
// which skip reports true (nil means no link is skipped). It fills
// s.prev/s.seen and reports whether b was reached. The FIFO queue visits
// nodes in the same order as a frontier-by-frontier sweep, so ties are
// broken deterministically by link ID exactly like the historical
// implementation.
func bfs(c *csr, s *bfsScratch, a, b NodeID, skip []bool) bool {
	s.seen[a] = s.epoch
	s.queue = append(s.queue[:0], a)
	for qi := 0; qi < len(s.queue); qi++ {
		n := s.queue[qi]
		for i := c.heads[n]; i < c.heads[n+1]; i++ {
			l := c.outLinks[i]
			if skip != nil && int(l) < len(skip) && skip[l] {
				continue
			}
			to := c.outTo[i]
			if s.seen[to] == s.epoch {
				continue
			}
			s.seen[to] = s.epoch
			s.prev[to] = l
			if to == b {
				return true
			}
			s.queue = append(s.queue, to)
		}
	}
	return false
}

// unwind materializes the path recorded in s.prev.
func (g *Graph) unwind(s *bfsScratch, a, b NodeID) Path {
	n, hops := b, 0
	for n != a {
		l := s.prev[n]
		hops++
		n = g.links[l].From
	}
	p := make(Path, hops)
	n = b
	for i := hops - 1; i >= 0; i-- {
		l := s.prev[n]
		p[i] = l
		n = g.links[l].From
	}
	return p
}

// ShortestPath returns a minimum-hop path from a to b found by BFS, or nil
// if b is unreachable. Ties are broken deterministically by link ID.
func (g *Graph) ShortestPath(a, b NodeID) Path {
	return g.ShortestPathAvoidingDense(a, b, nil)
}

// Distance returns the minimum hop count from a to b, or -1 if unreachable.
func (g *Graph) Distance(a, b NodeID) int {
	return g.DistanceAvoidingDense(a, b, nil)
}

// ShortestPathAvoidingDense returns a minimum-hop path from a to b that
// uses no link in avoid, or nil if none exists. It is the routing query
// behind online repair: after a link failure the allocator re-routes
// around the excluded links. avoid is a dense bool slice indexed by
// LinkID (nil or short slices treat missing entries as not avoided).
// Ties are broken deterministically by link ID, like ShortestPath.
func (g *Graph) ShortestPathAvoidingDense(a, b NodeID, avoid []bool) Path {
	if a == b {
		return Path{}
	}
	c := g.snapshot()
	s := grab(c.nodes)
	defer s.release()
	if !bfs(c, s, a, b, avoid) {
		return nil
	}
	return g.unwind(s, a, b)
}

// DistanceAvoidingDense returns the minimum hop count from a to b avoiding
// the densely-given links, or -1. It allocates nothing: the hop count is
// recovered by walking prev pointers instead of materializing the path.
func (g *Graph) DistanceAvoidingDense(a, b NodeID, avoid []bool) int {
	if a == b {
		return 0
	}
	c := g.snapshot()
	s := grab(c.nodes)
	defer s.release()
	if !bfs(c, s, a, b, avoid) {
		return -1
	}
	hops := 0
	for n := b; n != a; {
		hops++
		n = g.links[s.prev[n]].From
	}
	return hops
}

// SimplePathsAvoidingDense enumerates simple paths (no repeated node)
// over the links not in the dense avoid set (indexed by LinkID; nil
// avoids nothing): the first limit simple paths from a to b of at most
// maxLen links that use no avoided link, shortest first and then
// lexicographic by link IDs, and whether more such paths exist — the
// signal the allocator surfaces through telemetry so ErrNoCapacity under
// truncation is diagnosable. limit <= 0 means no cap. Used by the
// multipath allocator.
//
// The paths are generated in that order rather than sorted: a reverse BFS
// from b gives every node's hop count to b, then one DFS per length L
// visits out-links in ascending ID order (the CSR order) and prunes every
// prefix that cannot reach b within L links. Generation stops at the
// (limit+1)-th path, so the cost follows the paths returned, not the
// number of self-avoiding walks within maxLen.
func (g *Graph) SimplePathsAvoidingDense(a, b NodeID, maxLen, limit int, avoid []bool) ([]Path, bool) {
	c := g.snapshot()
	s := grab(c.nodes)
	defer s.release()
	distancesTo(c, s, b, maxLen, avoid)
	if s.seen[a] != s.epoch {
		return nil, false
	}
	if len(s.cur) < maxLen {
		s.cur = make(Path, maxLen)
	}
	s.found, s.ends = s.found[:0], s.ends[:0]
	e := enumeration{c: c, s: s, b: b, avoid: avoid, limit: limit}
	for e.length = int(s.dist[a]); e.length <= maxLen && !e.truncated; e.length++ {
		e.dfs(a, 0)
	}
	if len(s.ends) == 0 {
		return nil, false
	}
	flat := make(Path, len(s.found))
	copy(flat, s.found)
	out := make([]Path, len(s.ends))
	start := int32(0)
	for i, end := range s.ends {
		out[i] = flat[start:end:end]
		start = end
	}
	return out, e.truncated
}

// distancesTo runs a BFS from b over the in-links of the snapshot,
// skipping avoided links, and records in s.dist the hop count from every
// node that reaches b within maxLen links (s.seen marks them).
func distancesTo(c *csr, s *bfsScratch, b NodeID, maxLen int, avoid []bool) {
	s.seen[b] = s.epoch
	s.dist[b] = 0
	s.queue = append(s.queue[:0], b)
	for qi := 0; qi < len(s.queue); qi++ {
		n := s.queue[qi]
		d := s.dist[n] + 1
		if int(d) > maxLen {
			break
		}
		for i := c.inHeads[n]; i < c.inHeads[n+1]; i++ {
			l := c.inLinks[i]
			if avoid != nil && int(l) < len(avoid) && avoid[l] {
				continue
			}
			from := c.inFrom[i]
			if s.seen[from] == s.epoch {
				continue
			}
			s.seen[from] = s.epoch
			s.dist[from] = d
			s.queue = append(s.queue, from)
		}
	}
}

// enumeration is the state of one SimplePathsAvoidingDense call: the DFS
// pass for paths of exactly length links, and whether the cap was hit.
// The paths found so far are concatenated in s.found, each ending at its
// entry of s.ends.
type enumeration struct {
	c         *csr
	s         *bfsScratch
	b         NodeID
	avoid     []bool
	limit     int
	length    int
	truncated bool
}

// dfs extends the prefix s.cur[:depth], which ends at n, and reports
// whether the enumeration is complete. s.onCur is left all-false.
func (e *enumeration) dfs(n NodeID, depth int) bool {
	if n == e.b {
		return depth == e.length && e.emit()
	}
	c, s := e.c, e.s
	s.onCur[n] = true
	for i := c.heads[n]; i < c.heads[n+1]; i++ {
		l := c.outLinks[i]
		if e.avoid != nil && int(l) < len(e.avoid) && e.avoid[l] {
			continue
		}
		to := c.outTo[i]
		if s.onCur[to] || s.seen[to] != s.epoch || depth+1+int(s.dist[to]) > e.length {
			continue
		}
		s.cur[depth] = l
		if e.dfs(to, depth+1) {
			s.onCur[n] = false
			return true
		}
	}
	s.onCur[n] = false
	return false
}

// emit records s.cur[:length] as the next path, or marks the result
// truncated when limit paths are already recorded. It reports whether the
// enumeration is complete.
func (e *enumeration) emit() bool {
	s := e.s
	if e.limit > 0 && len(s.ends) == e.limit {
		e.truncated = true
		return true
	}
	s.found = append(s.found, s.cur[:e.length]...)
	s.ends = append(s.ends, int32(len(s.found)))
	return false
}

// SpanningTree is a minimal-depth (BFS) spanning tree rooted at Root. The
// configuration network instantiates one forward (broadcast) and one
// reverse (converging) link along every tree edge, parallel to the data
// links the edge follows.
type SpanningTree struct {
	Root     NodeID
	Parent   map[NodeID]NodeID   // parent of every non-root node
	Children map[NodeID][]NodeID // children in deterministic order
	Depth    map[NodeID]int      // hop distance from root
}

// BFSTree computes the minimal-depth spanning tree of all nodes reachable
// from root, following directed links. Children are ordered by node ID.
func (g *Graph) BFSTree(root NodeID) *SpanningTree {
	return g.BFSTreeWithin(root, nil)
}

// BFSTreeWithin computes the minimal-depth spanning tree of the nodes
// reachable from root through nodes satisfying member (nil admits every
// node). Configuration regions use it to grow one tree per region that
// never leaves the region's element set.
func (g *Graph) BFSTreeWithin(root NodeID, member func(NodeID) bool) *SpanningTree {
	t := &SpanningTree{
		Root:     root,
		Parent:   make(map[NodeID]NodeID),
		Children: make(map[NodeID][]NodeID),
		Depth:    map[NodeID]int{root: 0},
	}
	frontier := []NodeID{root}
	for len(frontier) > 0 {
		var next []NodeID
		for _, n := range frontier {
			var kids []NodeID
			for _, l := range g.out[n] {
				to := g.links[l].To
				if _, seen := t.Depth[to]; seen {
					continue
				}
				if member != nil && !member(to) {
					continue
				}
				t.Depth[to] = t.Depth[n] + 1
				t.Parent[to] = n
				kids = append(kids, to)
			}
			sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
			t.Children[n] = kids
			next = append(next, kids...)
		}
		frontier = next
	}
	return t
}

// MaxDepth returns the depth of the deepest node in the tree.
func (t *SpanningTree) MaxDepth() int {
	max := 0
	for _, d := range t.Depth {
		if d > max {
			max = d
		}
	}
	return max
}

// Size returns the number of nodes covered by the tree.
func (t *SpanningTree) Size() int { return len(t.Depth) }

// PathToRoot returns the node sequence from n up to (and including) the
// root.
func (t *SpanningTree) PathToRoot(n NodeID) []NodeID {
	path := []NodeID{n}
	for n != t.Root {
		p, ok := t.Parent[n]
		if !ok {
			return nil
		}
		n = p
		path = append(path, n)
	}
	return path
}
