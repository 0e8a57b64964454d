// Package core assembles complete daelite platforms (Fig. 3 of the paper)
// and exposes the network's service interface: guaranteed-bandwidth,
// guaranteed-latency connections that are set up and torn down at run time
// through the dedicated broadcast configuration tree, including multicast
// trees, while unrelated traffic keeps flowing undisturbed.
//
// The package wires cycle-accurate router and NI models over a mesh (or
// any topology.Graph-backed layout), grows the configuration tree as a
// minimal-depth spanning tree rooted at the router next to the host NI,
// drives the contention-free slot allocator, and translates allocations
// into the exact configuration packets the hardware decoders consume.
package core

import (
	"fmt"

	"daelite/internal/alloc"
	"daelite/internal/cfgproto"
	"daelite/internal/configtree"
	"daelite/internal/ni"
	"daelite/internal/phit"
	"daelite/internal/router"
	"daelite/internal/sim"
	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
)

// flitWire is the wire type of a data link.
type flitWire = sim.Reg[phit.Flit]

// Params are the platform-wide hardware parameters.
type Params struct {
	// Wheel is the TDM slot-table size (8–32 in the paper's
	// experiments).
	Wheel int
	// SlotWords is the slot length in words; daelite uses 2 (and the
	// paper notes it could be reduced to 1).
	SlotWords int
	// NumChannels is the number of connection endpoints per NI.
	NumChannels int
	// SendQueueDepth and RecvQueueDepth are per-channel NI queue sizes
	// in words; RecvQueueDepth is the credit a source receives at
	// set-up.
	SendQueueDepth int
	RecvQueueDepth int
	// Cooldown is the configuration module's post-packet quiet period.
	Cooldown int
	// ReadTimeout, ReadRetries and ReadBackoff arm the configuration
	// module's read-transaction watchdog (see configtree.Params); a zero
	// ReadTimeout leaves reads waiting forever, the pre-fault-tolerance
	// behaviour.
	ReadTimeout uint64
	ReadRetries int
	ReadBackoff uint64
	// MaxRegionElements caps the elements per configuration region; 0
	// selects 127, the full 7-bit element-ID space (ID 127 is the
	// reserved padding element). Platforms that fit one region keep the
	// single-tree architecture bit for bit; larger platforms are
	// partitioned into column bands, each with its own config tree,
	// host port and region-local ID space (see topology.Regions).
	// Lower values force regioning on small platforms — used by tests
	// and the E20 experiment to compare single-tree against regioned
	// set-up at equal size.
	MaxRegionElements int
	// FastForward arms the kernel's fast-forward
	// (sim.EnableFastForward): while every component, traffic endpoints
	// included, sleeps, Platform.Run skips cycles instead of evaluating
	// them. Observable behaviour — wire fingerprints,
	// telemetry, traces — is bit-identical to cycle-accurate execution.
	FastForward bool
}

// DefaultParams mirror the paper's running example: 8 slots of 2 words,
// 6-bit credits (queue depth 32 fits comfortably), and a short cool-down.
func DefaultParams() Params {
	return Params{
		Wheel:          8,
		SlotWords:      2,
		NumChannels:    8,
		SendQueueDepth: 16,
		RecvQueueDepth: 32,
		Cooldown:       4,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.MaxRegionElements != 0 && (p.MaxRegionElements < 2 || p.MaxRegionElements > 127) {
		return fmt.Errorf("core: MaxRegionElements %d out of range 2..127 (0 = default 127)", p.MaxRegionElements)
	}
	rp := router.Params{Wheel: p.Wheel, SlotWords: p.SlotWords}
	if err := rp.Validate(); err != nil {
		return err
	}
	np := ni.Params{
		Wheel: p.Wheel, SlotWords: p.SlotWords, NumChannels: p.NumChannels,
		SendQueueDepth: p.SendQueueDepth, RecvQueueDepth: p.RecvQueueDepth,
	}
	return np.Validate()
}

// Platform is a fully wired daelite SoC.
type Platform struct {
	Sim    *sim.Simulator
	Mesh   *topology.Mesh
	Params Params

	Routers map[topology.NodeID]*router.Router
	NIs     map[topology.NodeID]*ni.NI
	// Host is region 0's configuration module and Tree its spanning
	// tree — on a single-region platform (the common case) they are the
	// whole configuration infrastructure, exactly as before regions
	// existed. Config, Trees and Regions are the region-aware view:
	// one module and one tree per region, plus the element partition.
	Host    *configtree.Module
	Tree    *topology.SpanningTree
	Config  *configtree.Forest
	Trees   []*topology.SpanningTree
	Regions *topology.Regions
	HostNI  topology.NodeID
	Alloc   *alloc.Allocator

	channelsUsed map[topology.NodeID]map[int]bool
	connections  map[int]*Connection
	nextConnID   int

	// settleCycles is ConfigSettleCycles, fixed once the trees are built.
	settleCycles uint64

	// tx is the configuration transaction under construction.
	tx txBuffers

	// tel is the attached telemetry registry (nil when observability is
	// off); harvest is the cached per-component handle state of the
	// sampling probe. pendingSpans holds configuration transactions
	// submitted but not yet settled; CompleteConfig stamps and counts
	// them.
	tel          *telemetry.Registry
	harvest      *telHarvest
	pendingSpans []*Span

	// openWakes are woken when CompleteConfig opens a connection (the
	// health monitor's, which polls a new connection's baseline in the
	// next cycle).
	openWakes []sim.Activity

	// tracer is the attached causal tracer (nil when tracing is off);
	// traceParent is the span adopted as parent by newly submitted
	// configuration transactions; pendingTraces holds the transaction
	// traces CompleteConfig ends at settle.
	tracer        *tracing.Tracer
	traceParent   tracing.SpanRef
	pendingTraces []*pendingTrace
}

// NewMeshPlatform builds a Width x Height mesh platform with one NI per
// router (unless spec says otherwise), with the host at hostX, hostY.
func NewMeshPlatform(spec topology.MeshSpec, params Params, hostX, hostY int) (*Platform, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	m, err := topology.NewMesh(spec)
	if err != nil {
		return nil, err
	}
	hostNI := m.NI(hostX, hostY, 0)
	return NewPlatform(m, params, hostNI)
}

// NewPlatform wires a platform over an already built mesh with the given
// host NI.
func NewPlatform(m *topology.Mesh, params Params, hostNI topology.NodeID) (*Platform, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	// Partition the elements into configuration regions. A platform of
	// up to 127 elements (the 7-bit ID space, with 127 the padding
	// element) is one region with identity local IDs — bit-identical to
	// the pre-region architecture. Larger platforms get one config tree
	// per region and region-local 7-bit IDs.
	regions, err := m.PartitionRegions(hostNI, params.MaxRegionElements)
	if err != nil {
		return nil, err
	}
	if regions.Num() > cfgproto.MaxRegions {
		return nil, fmt.Errorf("core: %d configuration regions exceed the region-ID space (%d)", regions.Num(), cfgproto.MaxRegions)
	}
	s := sim.New()
	p := &Platform{
		Sim:          s,
		Mesh:         m,
		Params:       params,
		Routers:      make(map[topology.NodeID]*router.Router),
		NIs:          make(map[topology.NodeID]*ni.NI),
		HostNI:       hostNI,
		Alloc:        alloc.New(m.Graph, params.Wheel),
		channelsUsed: make(map[topology.NodeID]map[int]bool),
		connections:  make(map[int]*Connection),
		Regions:      regions,
	}

	// Instantiate elements. Configuration element IDs are region-local:
	// on a single-region platform they equal the topology node IDs.
	for _, n := range m.Nodes() {
		switch n.Kind {
		case topology.Router:
			r, err := router.New(s, n.Name, regions.LocalID(n.ID), m.InDegree(n.ID), m.OutDegree(n.ID),
				router.Params{Wheel: params.Wheel, SlotWords: params.SlotWords})
			if err != nil {
				return nil, err
			}
			p.Routers[n.ID] = r
		case topology.NI:
			nif, err := ni.New(s, n.Name, regions.LocalID(n.ID), ni.Params{
				Wheel: params.Wheel, SlotWords: params.SlotWords,
				NumChannels:    params.NumChannels,
				SendQueueDepth: params.SendQueueDepth,
				RecvQueueDepth: params.RecvQueueDepth,
			})
			if err != nil {
				return nil, err
			}
			p.NIs[n.ID] = nif
		}
	}

	// Wire data links: the source element owns the wire. Pipelined
	// (mesochronous/long) links insert extra register stages, each
	// worth exactly one TDM slot, so contention-free scheduling is
	// preserved (the allocator accounts a larger slot advance and the
	// configuration packets carry padding pairs for the extra
	// rotations).
	for _, l := range m.Links() {
		wire := p.LinkWire(l)
		if stages := m.Graph.Pipeline(l.ID); stages > 0 {
			wire = newLinkPipeline(s, fmt.Sprintf("pipe-link%d", l.ID), wire, stages*params.SlotWords)
		}
		p.connectInput(l, wire)
	}

	// One configuration tree per region, each a minimal-depth spanning
	// tree confined to the region's members. Region 0 holds the host NI
	// and keeps the ConfigRoot(hostNI) root and the "cfg-module" name,
	// so single-region platforms are wired exactly as before.
	cfgParams := configtree.Params{
		Cooldown:    params.Cooldown,
		QueueDepth:  4096,
		ReadTimeout: params.ReadTimeout,
		ReadRetries: params.ReadRetries,
		ReadBackoff: params.ReadBackoff,
	}
	mods := make([]*configtree.Module, regions.Num())
	p.Trees = make([]*topology.SpanningTree, regions.Num())
	for reg := 0; reg < regions.Num(); reg++ {
		root := regions.Roots[reg]
		tree := m.BFSTreeWithin(root, func(n topology.NodeID) bool { return regions.Of(n) == reg })
		if tree.Size() != len(regions.Members[reg]) {
			return nil, fmt.Errorf("core: region %d is not connected: its config tree reaches %d of %d members", reg, tree.Size(), len(regions.Members[reg]))
		}
		name := "cfg-module"
		if reg > 0 {
			name = fmt.Sprintf("cfg-module-r%d", reg)
		}
		mod := configtree.New(s, name, cfgParams)
		mod.ConnectResponse(p.wireTree(tree, root, mod.ForwardWire()))
		p.Trees[reg] = tree
		mods[reg] = mod
		p.settleCycles = max(p.settleCycles, uint64(2*(tree.MaxDepth()+1)+2))
	}
	p.Config = configtree.NewForest(mods...)
	p.Host = mods[0]
	p.Tree = p.Trees[0]

	if params.FastForward {
		s.EnableFastForward()
	}
	return p, nil
}

// LinkWire is the source-end wire of data link l, the register the
// link's source router or NI drives: every probe that watches a link
// (checkers, monitors, fault injectors) reads or overrides this wire.
func (p *Platform) LinkWire(l topology.Link) *flitWire {
	if r, ok := p.Routers[l.From]; ok {
		return r.OutputWire(l.FromPort)
	}
	return p.NIs[l.From].OutputWire()
}

func (p *Platform) connectInput(l topology.Link, w *flitWire) {
	if r, ok := p.Routers[l.To]; ok {
		r.ConnectInput(l.ToPort, w)
		return
	}
	p.NIs[l.To].ConnectInput(w)
}

// wireTree attaches node n's element to the configuration tree below at,
// and the subtree below n under it (each tree edge is one hop, both
// ways), and returns n's place on the tree.
func (p *Platform) wireTree(tree *topology.SpanningTree, n topology.NodeID, at *configtree.Node) *configtree.Node {
	var nd *configtree.Node
	if r, ok := p.Routers[n]; ok {
		nd = r.ConnectConfigIn(at)
	} else {
		nd = p.NIs[n].ConnectConfigIn(at)
	}
	for _, child := range tree.Children[n] {
		p.wireTree(tree, child, nd)
	}
	return nd
}

// linkPipeline is a chain of extra register stages modelling a pipelined
// (long or mesochronous) link. Only the last stage is a wire another
// component reads; the ones before it are plain fields.
type linkPipeline struct {
	name   string
	in     *flitWire
	stages []phit.Flit // the depth-1 stages before out, input side first
	out    *flitWire
	act    sim.Activity
}

func newLinkPipeline(s *sim.Simulator, name string, in *flitWire, depth int) *flitWire {
	lp := &linkPipeline{
		name:   name,
		in:     in,
		stages: make([]phit.Flit, depth-1),
		out:    sim.NewReg(s, phit.Idle()),
	}
	lp.act = s.Add(lp)
	in.Wakes(lp.act, 0)
	return lp.out
}

// Name implements sim.Component.
func (lp *linkPipeline) Name() string { return lp.name }

// Eval implements sim.Component: a plain shift register, asleep once
// the feeding wire and every stage it shifts from are idle.
func (lp *linkPipeline) Eval(uint64) {
	f := lp.in.Get()
	busy := !f.IsIdle()
	for i := range lp.stages {
		f, lp.stages[i] = lp.stages[i], f
		busy = busy || !f.IsIdle()
	}
	lp.out.Set(f)
	if !busy {
		lp.act.Sleep()
	}
}

// NI returns the NI model at a node.
func (p *Platform) NI(id topology.NodeID) *ni.NI { return p.NIs[id] }

// Router returns the router model at a node.
func (p *Platform) Router(id topology.NodeID) *router.Router { return p.Routers[id] }

// Run advances the platform n cycles.
func (p *Platform) Run(n uint64) { p.Sim.Run(n) }

// Cycle returns the current cycle.
func (p *Platform) Cycle() uint64 { return p.Sim.Cycle() }

// ConfigSettleCycles is the number of cycles after the configuration
// modules go idle within which every in-flight word has traversed its
// tree (two cycles per tree hop, plus the module's own output stage).
// With several regions the deepest tree bounds the settle time.
func (p *Platform) ConfigSettleCycles() uint64 { return p.settleCycles }

// CompleteConfig runs the simulation until every region's configuration
// module is idle and all in-flight configuration words have settled — a
// transaction spanning several regions completes only when all involved
// trees have drained — and marks Open every connection whose set-up it
// settled. It returns the cycle at which configuration completed, or an
// error on budget exhaustion, which leaves the connections Opening.
func (p *Platform) CompleteConfig(budget uint64) (uint64, error) {
	drained := func() bool { return !p.Config.Busy() }
	var idle []uint64
	if p.tracer != nil && len(p.pendingTraces) > 0 {
		// Record each region's first-idle cycle for the per-region
		// inject spans. The predicate runs on the stepping goroutine
		// after every cycle, and modules only drain during this wait
		// (no new submissions), so first-idle is well defined and
		// deterministic.
		idle = make([]uint64, p.Config.NumRegions())
		drained = func() bool {
			all := true
			for r := 0; r < p.Config.NumRegions(); r++ {
				if p.Config.Region(r).Busy() {
					all = false
				} else if idle[r] == 0 {
					idle[r] = p.Sim.Cycle()
				}
			}
			return all
		}
	}
	_, ok := p.Sim.RunUntil(drained, budget)
	if !ok {
		return p.Sim.Cycle(), fmt.Errorf("core: configuration did not drain within %d cycles", budget)
	}
	p.Sim.Run(p.ConfigSettleCycles())
	done := p.Sim.Cycle()
	p.settleTraces(idle, done)
	// Every submitted transaction has drained: settle its span and
	// count it, and open the connection a set-up span belongs to
	// unless it was closed meanwhile. Spans settle even without a
	// registry — SetupCycles reads them directly.
	opened := false
	for _, s := range p.pendingSpans {
		s.SettleCycle = done
		if p.tel != nil {
			p.countSpan(s.Op, s.Cycles(), s.Words)
		}
		if c := p.connections[s.ID]; c != nil && &c.Setup == s {
			c.State = Open
			opened = true
		}
	}
	p.pendingSpans = p.pendingSpans[:0]
	if opened {
		for _, a := range p.openWakes {
			a.Wake()
		}
	}
	return done, nil
}

// allocChannelPref reserves pref if it is a free channel index, else the
// lowest free one. Repair uses the preference so a re-opened connection
// keeps the channel indices its traffic endpoints are bound to.
func (p *Platform) allocChannelPref(n topology.NodeID, pref int) (int, error) {
	used := p.channelsUsed[n]
	if used == nil {
		used = make(map[int]bool)
		p.channelsUsed[n] = used
	}
	if pref >= 0 && pref < p.Params.NumChannels && !used[pref] {
		used[pref] = true
		return pref, nil
	}
	for ch := 0; ch < p.Params.NumChannels; ch++ {
		if !used[ch] {
			used[ch] = true
			return ch, nil
		}
	}
	return 0, fmt.Errorf("core: NI %s %w", p.Mesh.Node(n).Name, ErrNoChannel)
}

func (p *Platform) freeChannel(n topology.NodeID, ch int) {
	if used := p.channelsUsed[n]; used != nil {
		delete(used, ch)
	}
}

// Connections returns the live connections by ID.
func (p *Platform) Connections() map[int]*Connection {
	out := make(map[int]*Connection, len(p.connections))
	for k, v := range p.connections {
		out[k] = v
	}
	return out
}
