// Package alloc implements the contention-free slot allocation flow — the
// design-time (and, incrementally, run-time) tooling the paper inherits
// from the Æthereal ecosystem: given a topology and a set of connection
// requests, find paths and TDM slots such that no link is claimed by two
// channels in the same slot.
//
// The slot-alignment law of the daelite pipeline (2-cycle hops, 2-word
// slots) is that a channel injected at slot s by its source NI occupies
// slot (s+k) mod W on the k-th link of its path, and is written into the
// destination NI's receive table at slot (s+L) mod W for a path of L
// links. All conflict checks below are bitwise operations on slot masks
// rotated by link depth, which makes a what-if test O(path length).
//
// Supported request shapes: single-path unicast, multipath unicast (one
// logical connection split over several paths, the basis of the ~24 %
// bandwidth gain the paper cites from [29]), and multicast trees (shared
// prefixes reserve each link once; forks replicate data at no extra slot
// cost on the shared segments).
//
// The admission hot path is engineered for throughput: occupancy lives in
// flat slices indexed by link/node ID (no map lookups), simple-path
// enumeration is memoized in a generation-invalidated cache, and
// transactional flows (multipath, use-cases, what-if dry runs) run on an
// undo-journal instead of copies, so an aborted what-if costs O(its own
// writes) rather than O(network). Admission is in-order and single-owner:
// every allocation goes through one greedy policy, one item at a time.
package alloc

import (
	"fmt"
	"sort"

	"daelite/internal/slots"
	"daelite/internal/topology"
)

// Allocator tracks slot occupancy of every link and NI table in a network
// and hands out contention-free allocations.
type Allocator struct {
	g     *topology.Graph
	wheel int

	// Occupancy bit masks (wheel bits each), indexed by LinkID/NodeID.
	// Slices may lag the graph; reads beyond their length see an empty
	// mask and writes grow them on demand.
	linkOcc []uint64
	niTX    []uint64
	niRX    []uint64

	// excluded links carry no new allocations (existing reservations are
	// untouched): the online-repair flow marks failed links here and
	// re-allocates affected connections around them. numExcluded lets
	// the path filter skip entirely in the common all-links-good case.
	excluded    []bool
	numExcluded int

	// gen identifies the current exclusion set in the path cache: 0
	// means "nothing excluded"; every other exclusion change takes a
	// fresh generation so stale cached path sets can never be served
	// (see cache.go).
	gen   uint64
	cache *pathCache

	// journal is the undo log of the transaction in flight (txdepth > 0):
	// every occupancy write records the previous word, so an abort rolls
	// back in O(writes). Transactions nest (a multipath unicast inside a
	// use-case); the journal is dropped when the outermost commits.
	journal []undo
	txdepth int

	// epoch counts occupancy mutations: every commit, release or
	// rollback bumps it, so observers (the conformance checkers) can
	// detect that the reservation set changed and rebuild their
	// expectations without being wired into every admission path.
	epoch uint64
}

// undo is one journal record: which occupancy word held prev before the
// write.
type undo struct {
	kind uint8 // uLink, uTX, uRX
	idx  int32
	prev uint64
}

const (
	uLink uint8 = iota
	uTX
	uRX
)

// New returns an empty allocator over g with the given slot-wheel size.
func New(g *topology.Graph, wheel int) *Allocator {
	return &Allocator{
		g:        g,
		wheel:    wheel,
		linkOcc:  make([]uint64, g.NumLinks()),
		niTX:     make([]uint64, g.NumNodes()),
		niRX:     make([]uint64, g.NumNodes()),
		excluded: make([]bool, g.NumLinks()),
		cache:    newPathCache(),
	}
}

// Wheel returns the slot-wheel size.
func (a *Allocator) Wheel() int { return a.wheel }

// Epoch returns the occupancy mutation counter: it changes whenever any
// reservation is committed, released or rolled back. Observers compare
// epochs to learn that the slot tables they mirror have moved.
func (a *Allocator) Epoch() uint64 { return a.epoch }

// beginTxn opens a (possibly nested) transaction and returns its journal
// mark.
func (a *Allocator) beginTxn() int {
	a.txdepth++
	return len(a.journal)
}

// commitTxn closes the transaction opened at mark; the journal is dropped
// when the outermost level commits.
func (a *Allocator) commitTxn() {
	a.txdepth--
	if a.txdepth == 0 {
		a.journal = a.journal[:0]
	}
}

// abortTxn rolls every write since mark back in reverse order and closes
// the transaction level.
func (a *Allocator) abortTxn(mark int) {
	for i := len(a.journal) - 1; i >= mark; i-- {
		u := a.journal[i]
		switch u.kind {
		case uLink:
			a.linkOcc[u.idx] = u.prev
		case uTX:
			a.niTX[u.idx] = u.prev
		case uRX:
			a.niRX[u.idx] = u.prev
		}
	}
	a.journal = a.journal[:mark]
	a.txdepth--
}

// grow extends s with zero words so index i is addressable.
func grow(s []uint64, i int) []uint64 {
	for len(s) <= i {
		s = append(s, 0)
	}
	return s
}

func (a *Allocator) linkBits(l topology.LinkID) uint64 {
	if int(l) >= len(a.linkOcc) {
		return 0
	}
	return a.linkOcc[l]
}

func (a *Allocator) txBits(n topology.NodeID) uint64 {
	if int(n) >= len(a.niTX) {
		return 0
	}
	return a.niTX[n]
}

func (a *Allocator) rxBits(n topology.NodeID) uint64 {
	if int(n) >= len(a.niRX) {
		return 0
	}
	return a.niRX[n]
}

func (a *Allocator) setLinkBits(l topology.LinkID, bits uint64) {
	a.linkOcc = grow(a.linkOcc, int(l))
	if a.txdepth > 0 {
		a.journal = append(a.journal, undo{uLink, int32(l), a.linkOcc[l]})
	}
	a.linkOcc[l] = bits
	a.epoch++
}

func (a *Allocator) setTXBits(n topology.NodeID, bits uint64) {
	a.niTX = grow(a.niTX, int(n))
	if a.txdepth > 0 {
		a.journal = append(a.journal, undo{uTX, int32(n), a.niTX[n]})
	}
	a.niTX[n] = bits
	a.epoch++
}

func (a *Allocator) setRXBits(n topology.NodeID, bits uint64) {
	a.niRX = grow(a.niRX, int(n))
	if a.txdepth > 0 {
		a.journal = append(a.journal, undo{uRX, int32(n), a.niRX[n]})
	}
	a.niRX[n] = bits
	a.epoch++
}

// ExcludeLink bars link l from all future allocations (fault isolation).
// Slots already reserved on l stay accounted until their connections are
// released.
func (a *Allocator) ExcludeLink(l topology.LinkID) {
	for len(a.excluded) <= int(l) {
		a.excluded = append(a.excluded, false)
	}
	if a.excluded[l] {
		return
	}
	a.excluded[l] = true
	a.numExcluded++
	a.gen = a.cache.bumpGen()
}

// IncludeLink lifts an exclusion (the link was repaired).
func (a *Allocator) IncludeLink(l topology.LinkID) {
	if int(l) >= len(a.excluded) || !a.excluded[l] {
		return
	}
	a.excluded[l] = false
	a.numExcluded--
	if a.numExcluded == 0 {
		a.gen = 0
	} else {
		a.gen = a.cache.bumpGen()
	}
}

// ExcludedLinks returns the currently excluded links in ID order.
func (a *Allocator) ExcludedLinks() []topology.LinkID {
	out := make([]topology.LinkID, 0, a.numExcluded)
	for l, bad := range a.excluded {
		if bad {
			out = append(out, topology.LinkID(l))
		}
	}
	return out
}

// avoidSet returns the dense excluded-link set for routing queries, nil
// when nothing is excluded.
func (a *Allocator) avoidSet() []bool {
	if a.numExcluded == 0 {
		return nil
	}
	return a.excluded
}

// LinkOccupancy returns the mask of used slots on link l.
func (a *Allocator) LinkOccupancy(l topology.LinkID) slots.Mask {
	return slots.Mask{Bits: a.linkBits(l), Size: a.wheel}
}

func wheelBits(n int) uint64 {
	if n == 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// CandidateSlots returns the injection-slot mask for which the whole path
// is free: slot s is a candidate iff every link is free at s plus its
// cumulative slot offset (one per standard hop, plus one per pipeline
// stage of preceding links), the source NI's table is free at s, and the
// destination NI's table is free at the path's total slot advance.
func (a *Allocator) CandidateSlots(path topology.Path) slots.Mask {
	if len(path) == 0 {
		return slots.NewMask(a.wheel)
	}
	wb := wheelBits(a.wheel)
	src := a.g.Link(path[0]).From
	dst := a.g.Link(path[len(path)-1]).To
	cand := slots.Mask{Bits: ^a.txBits(src) & wb, Size: a.wheel}
	off := 0
	for _, l := range path {
		free := slots.Mask{Bits: ^a.linkBits(l) & wb, Size: a.wheel}
		cand = cand.Intersect(free.RotateDown(off))
		off += a.g.SlotAdvance(l)
	}
	dstFree := slots.Mask{Bits: ^a.rxBits(dst) & wb, Size: a.wheel}
	cand = cand.Intersect(dstFree.RotateDown(off))
	return cand
}

// PathAlloc is the reservation of some injection slots along one path.
type PathAlloc struct {
	Path topology.Path
	// InjectSlots is the source-view slot mask: the slots at which the
	// source NI injects on this path.
	InjectSlots slots.Mask
}

// DestSlots returns the destination NI's receive-table mask for this
// path; g supplies per-link slot advances (pipelined links shift by more
// than one).
func (p PathAlloc) DestSlots(g *topology.Graph) slots.Mask {
	return p.InjectSlots.RotateUp(g.PathSlotAdvance(p.Path))
}

// Unicast is an allocated unicast channel, possibly split over several
// paths (multipath).
type Unicast struct {
	Src, Dst topology.NodeID
	Paths    []PathAlloc
}

// SlotCount returns the total number of injection slots reserved.
func (u *Unicast) SlotCount() int {
	n := 0
	for _, p := range u.Paths {
		n += p.InjectSlots.Count()
	}
	return n
}

// Options tune an allocation request.
type Options struct {
	// Multipath allows splitting the demand over several paths.
	Multipath bool
	// MaxPaths bounds the number of candidate paths tried/used (default
	// 8): the first MaxPaths simple paths that avoid the excluded links,
	// shortest first and then lexicographic by link ID. Only those are
	// enumerated and cached. When more candidates existed the allocator
	// counts a truncation in its cache stats, surfaced through
	// telemetry, so an ErrNoCapacity caused by the cap is diagnosable.
	MaxPaths int
	// MaxDetour allows paths up to MaxDetour links longer than the
	// shortest (default 0: shortest paths only; multipath benefits from
	// 2).
	MaxDetour int
	// Spread selects slots spaced as evenly as possible around the
	// wheel instead of the lowest free ones, minimizing the worst-case
	// scheduling latency (the wait for the next owned slot). Used by
	// the dimensioning flow for latency-constrained connections.
	Spread bool
}

func (o Options) withDefaults() Options {
	if o.MaxPaths <= 0 {
		o.MaxPaths = 8
	}
	if o.MaxDetour < 0 {
		o.MaxDetour = 0
	}
	return o
}

// ErrNoCapacity is returned when a request cannot be satisfied.
type ErrNoCapacity struct {
	Want, Got int
}

func (e ErrNoCapacity) Error() string {
	return fmt.Sprintf("alloc: capacity exhausted: want %d slots, found %d", e.Want, e.Got)
}

// Unicast reserves nslots injection slots from src to dst. With
// opts.Multipath it may split the reservation across several paths;
// otherwise a single path must carry all slots.
func (a *Allocator) Unicast(src, dst topology.NodeID, nslots int, opts Options) (*Unicast, error) {
	if nslots <= 0 {
		return nil, fmt.Errorf("alloc: nslots must be positive")
	}
	if src == dst {
		return nil, fmt.Errorf("alloc: source and destination NI are the same")
	}
	opts = opts.withDefaults()
	min := a.cachedDistance(src, dst)
	if min < 0 {
		return nil, fmt.Errorf("alloc: no path from %d to %d avoiding %d excluded links", src, dst, a.numExcluded)
	}
	paths := a.cachedPaths(src, dst, min+opts.MaxDetour, opts.MaxPaths)

	if !opts.Multipath {
		for _, p := range paths {
			cand := a.CandidateSlots(p)
			if cand.Count() >= nslots {
				take := firstN(cand, nslots)
				if opts.Spread {
					take = PickSpread(cand, nslots)
				}
				u := &Unicast{Src: src, Dst: dst, Paths: []PathAlloc{{Path: p, InjectSlots: take}}}
				a.commitUnicast(u)
				return u, nil
			}
		}
		best := 0
		for _, p := range paths {
			if c := a.CandidateSlots(p).Count(); c > best {
				best = c
			}
		}
		return nil, ErrNoCapacity{Want: nslots, Got: best}
	}

	// Multipath: take slots greedily path by path (shortest first). The
	// source NI can inject each slot on only one path, so committing each
	// path before computing the next candidate mask excludes claimed
	// injection slots automatically; the journal undoes everything if the
	// demand cannot be met in full.
	mark := a.beginTxn()
	u := &Unicast{Src: src, Dst: dst}
	remaining := nslots
	for _, p := range paths {
		if remaining == 0 {
			break
		}
		cand := a.CandidateSlots(p)
		if cand.Empty() {
			continue
		}
		take := firstN(cand, remaining)
		pa := PathAlloc{Path: p, InjectSlots: take}
		a.commitUnicast(&Unicast{Src: src, Dst: dst, Paths: []PathAlloc{pa}})
		u.Paths = append(u.Paths, pa)
		remaining -= take.Count()
	}
	if remaining > 0 {
		a.abortTxn(mark)
		return nil, ErrNoCapacity{Want: nslots, Got: nslots - remaining}
	}
	a.commitTxn()
	return u, nil
}

// firstN returns the lowest n set slots of m (all of them if fewer).
func firstN(m slots.Mask, n int) slots.Mask {
	out := slots.NewMask(m.Size)
	for _, s := range m.Slots() {
		if n == 0 {
			break
		}
		out = out.With(s)
		n--
	}
	return out
}

// PickSpread chooses n slots out of the candidate mask spaced as evenly
// as possible around the wheel: the first candidate is taken, then each
// following pick is the candidate closest to the ideal equidistant
// position. Evenly spread slots minimize the worst-case scheduling
// latency for a given bandwidth share.
func PickSpread(cand slots.Mask, n int) slots.Mask {
	cs := cand.Slots()
	if n >= len(cs) {
		return cand
	}
	out := slots.NewMask(cand.Size)
	if n <= 0 {
		return out
	}
	used := make(map[int]bool, n)
	stride := float64(cand.Size) / float64(n)
	base := cs[0]
	for k := 0; k < n; k++ {
		ideal := (base + int(float64(k)*stride+0.5)) % cand.Size
		// Nearest unused candidate to the ideal position (cyclic
		// distance).
		best, bestDist := -1, cand.Size+1
		for _, s := range cs {
			if used[s] {
				continue
			}
			d := s - ideal
			if d < 0 {
				d = -d
			}
			if cand.Size-d < d {
				d = cand.Size - d
			}
			if d < bestDist {
				best, bestDist = s, d
			}
		}
		used[best] = true
		out = out.With(best)
	}
	// The heuristic can lose to first-fit on adversarial candidate
	// sets; never return a worse pick.
	if ff := firstN(cand, n); ff.MaxGap() < out.MaxGap() {
		return ff
	}
	return out
}

// commitUnicast marks the allocation's slots as used.
func (a *Allocator) commitUnicast(u *Unicast) {
	for _, pa := range u.Paths {
		a.setTXBits(u.Src, a.txBits(u.Src)|pa.InjectSlots.Bits)
		off := 0
		for _, l := range pa.Path {
			a.setLinkBits(l, a.linkBits(l)|pa.InjectSlots.RotateUp(off).Bits)
			off += a.g.SlotAdvance(l)
		}
		a.setRXBits(u.Dst, a.rxBits(u.Dst)|pa.InjectSlots.RotateUp(off).Bits)
	}
}

// ReleaseUnicast returns an allocation's slots to the pool.
func (a *Allocator) ReleaseUnicast(u *Unicast) {
	for _, pa := range u.Paths {
		a.setTXBits(u.Src, a.txBits(u.Src)&^pa.InjectSlots.Bits)
		off := 0
		for _, l := range pa.Path {
			a.setLinkBits(l, a.linkBits(l)&^pa.InjectSlots.RotateUp(off).Bits)
			off += a.g.SlotAdvance(l)
		}
		a.setRXBits(u.Dst, a.rxBits(u.Dst)&^pa.InjectSlots.RotateUp(off).Bits)
	}
}

// TotalSlotsUsed sums reserved (link, slot) pairs, a load metric for
// experiments.
func (a *Allocator) TotalSlotsUsed() int {
	n := 0
	for _, bits := range a.linkOcc {
		n += slots.Mask{Bits: bits, Size: a.wheel}.Count()
	}
	return n
}

// TreeEdge is one link of a multicast tree with its depth (links from the
// source NI).
type TreeEdge struct {
	Link  topology.LinkID
	Depth int
}

// Multicast is an allocated multicast tree rooted at the source NI.
type Multicast struct {
	Src  topology.NodeID
	Dsts []topology.NodeID
	// InjectSlots is the source-view slot mask shared by the whole
	// tree.
	InjectSlots slots.Mask
	// Edges lists every tree link once with its depth.
	Edges []TreeEdge
	// DestDepth gives each destination NI's path length (for its
	// receive-table slots: InjectSlots rotated up by depth).
	DestDepth map[topology.NodeID]int
}

// DestSlots returns the receive-table mask of destination d.
func (m *Multicast) DestSlots(d topology.NodeID) slots.Mask {
	return m.InjectSlots.RotateUp(m.DestDepth[d])
}

// Multicast reserves nslots injection slots for a tree from src to every
// destination. The tree is grown greedily: destinations are connected in
// increasing distance from src, each via a shortest path from the already
// reached set, so shared prefixes reserve each link once.
func (a *Allocator) Multicast(src topology.NodeID, dsts []topology.NodeID, nslots int) (*Multicast, error) {
	if nslots <= 0 {
		return nil, fmt.Errorf("alloc: nslots must be positive")
	}
	if len(dsts) == 0 {
		return nil, fmt.Errorf("alloc: no destinations")
	}
	for _, d := range dsts {
		if d == src {
			return nil, fmt.Errorf("alloc: destination equals source")
		}
	}
	// Order destinations by distance from the source.
	order := make([]topology.NodeID, len(dsts))
	copy(order, dsts)
	sort.Slice(order, func(i, j int) bool {
		di, dj := a.cachedPlainDistance(src, order[i]), a.cachedPlainDistance(src, order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})

	// nodeDepth tracks reached nodes and their depth from src.
	nodeDepth := map[topology.NodeID]int{src: 0}
	var edges []TreeEdge
	destDepth := make(map[topology.NodeID]int)
	for _, d := range order {
		if _, ok := nodeDepth[d]; ok {
			destDepth[d] = nodeDepth[d]
			continue
		}
		// Shortest attachment from any reached node, counting total
		// depth at the destination.
		var bestPath topology.Path
		bestDepth := -1
		var bestFrom topology.NodeID
		for from, fd := range nodeDepth {
			if a.g.Node(from).Kind == topology.NI && from != src {
				continue // cannot route through an NI
			}
			p := a.cachedShortestPath(from, d)
			if p == nil {
				continue
			}
			total := fd + len(p)
			if bestDepth == -1 || total < bestDepth || (total == bestDepth && from < bestFrom) {
				bestDepth, bestPath, bestFrom = total, p, from
			}
		}
		if bestPath == nil {
			return nil, fmt.Errorf("alloc: destination %d unreachable", d)
		}
		depth := nodeDepth[bestFrom]
		for _, l := range bestPath {
			linkOff := depth
			depth += a.g.SlotAdvance(l)
			to := a.g.Link(l).To
			if d0, seen := nodeDepth[to]; seen {
				// The attachment path crossed an already reached
				// node: keep the established depth labelling.
				depth = d0
				continue
			}
			nodeDepth[to] = depth
			edges = append(edges, TreeEdge{Link: l, Depth: linkOff})
		}
		destDepth[d] = nodeDepth[d]
	}

	// Candidate injection slots: every tree link free at its depth, the
	// source table free, every destination table free at its depth.
	wb := wheelBits(a.wheel)
	cand := slots.Mask{Bits: ^a.txBits(src) & wb, Size: a.wheel}
	for _, e := range edges {
		free := slots.Mask{Bits: ^a.linkBits(e.Link) & wb, Size: a.wheel}
		cand = cand.Intersect(free.RotateDown(e.Depth))
	}
	for d, dep := range destDepth {
		free := slots.Mask{Bits: ^a.rxBits(d) & wb, Size: a.wheel}
		cand = cand.Intersect(free.RotateDown(dep))
	}
	if cand.Count() < nslots {
		return nil, ErrNoCapacity{Want: nslots, Got: cand.Count()}
	}
	m := &Multicast{
		Src:         src,
		Dsts:        append([]topology.NodeID(nil), dsts...),
		InjectSlots: firstN(cand, nslots),
		Edges:       edges,
		DestDepth:   destDepth,
	}
	a.commitMulticast(m)
	return m, nil
}

func (a *Allocator) commitMulticast(m *Multicast) {
	a.setTXBits(m.Src, a.txBits(m.Src)|m.InjectSlots.Bits)
	for _, e := range m.Edges {
		a.setLinkBits(e.Link, a.linkBits(e.Link)|m.InjectSlots.RotateUp(e.Depth).Bits)
	}
	for d, dep := range m.DestDepth {
		a.setRXBits(d, a.rxBits(d)|m.InjectSlots.RotateUp(dep).Bits)
	}
}

// ReleaseMulticast returns a tree's slots to the pool.
func (a *Allocator) ReleaseMulticast(m *Multicast) {
	a.setTXBits(m.Src, a.txBits(m.Src)&^m.InjectSlots.Bits)
	for _, e := range m.Edges {
		a.setLinkBits(e.Link, a.linkBits(e.Link)&^m.InjectSlots.RotateUp(e.Depth).Bits)
	}
	for d, dep := range m.DestDepth {
		a.setRXBits(d, a.rxBits(d)&^m.InjectSlots.RotateUp(dep).Bits)
	}
}

// Verify checks the global contention-free invariant from scratch given
// all live allocations; it returns an error naming the first violation.
// Used by property tests (experiment E11) and the fuzz target.
func Verify(g *topology.Graph, wheel int, unicasts []*Unicast, multicasts []*Multicast) error {
	linkUse := make(map[topology.LinkID]slots.Mask)
	claim := func(l topology.LinkID, m slots.Mask) error {
		if m.Size != wheel {
			return fmt.Errorf("alloc: link %d claimed with wheel %d, allocator wheel %d", l, m.Size, wheel)
		}
		cur, ok := linkUse[l]
		if !ok {
			cur = slots.NewMask(wheel)
		}
		if cur.Overlaps(m) {
			return fmt.Errorf("alloc: link %d double-booked in slots %v", l, cur.Intersect(m).Slots())
		}
		linkUse[l] = cur.Union(m)
		return nil
	}
	for _, u := range unicasts {
		for _, pa := range u.Paths {
			off := 0
			for _, l := range pa.Path {
				if err := claim(l, pa.InjectSlots.RotateUp(off)); err != nil {
					return err
				}
				off += g.SlotAdvance(l)
			}
		}
	}
	for _, mc := range multicasts {
		for _, e := range mc.Edges {
			if err := claim(e.Link, mc.InjectSlots.RotateUp(e.Depth)); err != nil {
				return err
			}
		}
	}
	return nil
}
