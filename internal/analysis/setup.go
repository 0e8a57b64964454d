package analysis

import (
	"daelite/internal/alloc"
	"daelite/internal/cfgproto"
	"daelite/internal/topology"
)

// SetupCost is the predicted configuration cost of programming a path:
// how many packets the host must build and how many 7-bit words travel
// on the configuration trees, region-select envelopes included. It is
// the analytic mirror of the core packet builder — the one set-up word
// law of the repository, cross-checked by core's tests against the
// packets the builder really emits.
type SetupCost struct {
	// Packets is the number of path set-up packets.
	Packets int
	// Words is the total wire word count, envelopes included.
	Words int
	// Regions is the number of distinct configuration regions the path
	// crosses.
	Regions int
}

// Add accumulates another cost (e.g. the reverse direction of a
// bidirectional connection). Regions adds up as an upper bound — the two
// directions usually cross the same regions.
func (c SetupCost) Add(o SetupCost) SetupCost {
	return SetupCost{Packets: c.Packets + o.Packets, Words: c.Words + o.Words, Regions: c.Regions + o.Regions}
}

// PathSetupCost predicts the set-up cost of one path for a platform
// whose elements are partitioned into numRegions configuration regions
// by regionOf (pass nil or numRegions <= 1 for a single-region
// platform). wheel is the TDM slot-table size.
//
// The prediction mirrors the packet builder exactly: one pair per
// element along the path destination-first, padding pairs across
// pipelined links, the pair list cut at region changes (pads dangling at
// a cut are dropped), each run chunked into MaxPairs-sized packets of
// 1 header + MaskWords(wheel) mask + 2 words per pair, plus a
// region-select envelope of 1 + RegionSelectWords(region) words per
// packet when the platform has more than one region.
func PathSetupCost(g *topology.Graph, path topology.Path, wheel int, regionOf func(topology.NodeID) int, numRegions int) SetupCost {
	if regionOf == nil || numRegions <= 1 {
		regionOf = func(topology.NodeID) int { return 0 }
		numRegions = 1
	}
	L := len(path)
	offsets := make([]int, L+1)
	for j := 0; j < L; j++ {
		offsets[j+1] = offsets[j] + g.SlotAdvance(path[j])
	}
	// Walk the builder's pair sequence destination-first: the element's
	// region and the padding pairs that precede it (burnt rotations of
	// pipelined links).
	type step struct {
		region int
		pads   int // padding pairs between the previous pair and this one
	}
	var seq []step
	prev := offsets[L]
	push := func(n topology.NodeID, depth int) {
		seq = append(seq, step{region: regionOf(n), pads: prev - depth - 1})
		prev = depth
	}
	seq = append(seq, step{region: regionOf(g.Link(path[L-1]).To)})
	for j := L - 1; j >= 1; j-- {
		push(g.Link(path[j]).From, offsets[j])
	}
	push(g.Link(path[0]).From, 0)

	// Cut into region runs; pads at a cut are dropped on both sides.
	type run struct {
		region int
		pairs  int
	}
	var runs []run
	for i, s := range seq {
		if i == 0 || s.region != runs[len(runs)-1].region {
			runs = append(runs, run{region: s.region, pairs: 1})
			continue
		}
		runs[len(runs)-1].pairs += s.pads + 1
	}

	cost := SetupCost{}
	seen := make(map[int]bool)
	maskWords := cfgproto.MaskWords(wheel)
	for _, r := range runs {
		seen[r.region] = true
		for start := 0; start < r.pairs; start += cfgproto.MaxPairs {
			pairs := r.pairs - start
			if pairs > cfgproto.MaxPairs {
				pairs = cfgproto.MaxPairs
			}
			cost.Packets++
			cost.Words += 1 + maskWords + 2*pairs
			if numRegions > 1 {
				cost.Words += 1 + cfgproto.RegionSelectWords(r.region)
			}
		}
	}
	cost.Regions = len(seen)
	return cost
}

// UnicastSetupCost sums PathSetupCost over the paths of an allocated
// unicast channel (one direction). Regions counts the union over all
// paths.
func UnicastSetupCost(g *topology.Graph, u *alloc.Unicast, wheel int, regionOf func(topology.NodeID) int, numRegions int) SetupCost {
	if regionOf == nil || numRegions <= 1 {
		regionOf = func(topology.NodeID) int { return 0 }
		numRegions = 1
	}
	total := SetupCost{}
	seen := make(map[int]bool)
	for _, pa := range u.Paths {
		c := PathSetupCost(g, pa.Path, wheel, regionOf, numRegions)
		total.Packets += c.Packets
		total.Words += c.Words
		for _, l := range pa.Path {
			seen[regionOf(g.Link(l).From)] = true
		}
		seen[regionOf(g.Link(pa.Path[len(pa.Path)-1]).To)] = true
	}
	total.Regions = len(seen)
	return total
}
