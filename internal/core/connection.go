package core

import (
	"fmt"
	"sort"
	"strings"

	"daelite/internal/alloc"
	"daelite/internal/topology"
)

// ConnectionSpec describes a requested connection.
type ConnectionSpec struct {
	// Src is the source NI.
	Src topology.NodeID
	// Dst is the destination NI for unicast; Dsts lists destinations
	// for multicast (leave Dst zero-valued then).
	Dst  topology.NodeID
	Dsts []topology.NodeID
	// SlotsFwd is the number of TDM slots reserved for the forward
	// (request) direction; the guaranteed bandwidth is
	// SlotsFwd/Wheel of a link's capacity.
	SlotsFwd int
	// SlotsRev is the reverse (response) direction reservation. For
	// flow-controlled unicast it must be >= 1 because credits ride on
	// the reverse channel; 0 defaults to 1. Ignored for multicast.
	SlotsRev int
	// Multipath permits splitting the forward reservation over several
	// paths.
	Multipath bool
	// MaxDetour bounds multipath detours (links beyond shortest).
	MaxDetour int
	// Spread selects evenly spaced slots instead of the lowest free
	// ones, minimizing worst-case scheduling latency (used for
	// latency-constrained connections by the dimensioning flow).
	Spread bool
}

func (s ConnectionSpec) multicast() bool { return len(s.Dsts) > 0 }

// ConnState tracks the configuration lifecycle.
type ConnState int

const (
	// Opening means set-up packets are queued or in flight.
	Opening ConnState = iota
	// Open means the set-up settled: Platform.CompleteConfig sets it
	// when it observes the set-up's configuration drained.
	Open
	// Closed means the connection was torn down and its resources
	// released.
	Closed
)

// String implements fmt.Stringer.
func (s ConnState) String() string {
	switch s {
	case Opening:
		return "opening"
	case Open:
		return "open"
	case Closed:
		return "closed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Connection is a live guaranteed-service connection.
type Connection struct {
	ID   int
	Spec ConnectionSpec

	// SrcChannel is the local channel index at the source NI. For
	// bidirectional unicast the same index carries the reverse data
	// and the credits at each side.
	SrcChannel int
	// DstChannel is the destination's local channel (unicast).
	DstChannel int
	// DstChannels maps each multicast destination to its local channel.
	DstChannels map[topology.NodeID]int

	// Fwd and Rev are the unicast slot reservations; Tree the multicast
	// one.
	Fwd, Rev *alloc.Unicast
	Tree     *alloc.Multicast

	State ConnState

	// Setup is the structured set-up transaction: submit and settle
	// cycles bound the set-up duration as measured on the platform
	// (Table III methodology) and Words counts the configuration words
	// of all set-up packets. It settles when CompleteConfig observes the
	// configuration drained, which also adds it to the platform's
	// config_span* counters when a telemetry registry is attached.
	Setup Span
}

// Span is one structured configuration transaction — a connection
// set-up, tear-down or repair — with its cycle-domain timeline and the
// configuration words it cost.
type Span struct {
	// Op is the transaction kind: "setup", "teardown" or "repair".
	Op string
	// ID is the connection ID the transaction belongs to.
	ID int
	// SubmitCycle is when the first packet entered the configuration
	// module's queue; SettleCycle is when the whole transaction had
	// drained through the tree (0 while still in flight).
	SubmitCycle, SettleCycle uint64
	// Words counts the 7-bit configuration words of the transaction as
	// transmitted on the wire, region-select envelopes included.
	Words int
	// Regions counts the configuration regions the transaction touched.
	Regions int
	// Detail carries a human-readable endpoint description.
	Detail string
}

// Cycles returns the submit-to-settle duration, the Table III metric.
func (s Span) Cycles() uint64 {
	if s.SettleCycle < s.SubmitCycle {
		return 0
	}
	return s.SettleCycle - s.SubmitCycle
}

// Open allocates, configures and returns a connection, exactly as a
// one-spec OpenBatch would. The returned connection is in state Opening;
// CompleteConfig (or AwaitOpen) runs the platform until the configuration
// packets have traversed the tree and marks it Open.
func (p *Platform) Open(spec ConnectionSpec) (*Connection, error) {
	c, err := p.reserve(spec)
	if err != nil {
		return nil, err
	}
	return p.finish(c, noPref)
}

// validateEndpoints rejects specs whose endpoints are not NIs of this
// platform, before any allocator state is touched. A router endpoint
// would otherwise allocate a path and a phantom channel and blow up the
// first component that asks the platform for the endpoint NI.
func (p *Platform) validateEndpoints(spec ConnectionSpec) error {
	check := func(id topology.NodeID, role string) error {
		if p.NIs[id] == nil {
			return fmt.Errorf("core: %s node %d is not an NI of this platform", role, id)
		}
		return nil
	}
	if err := check(spec.Src, "src"); err != nil {
		return err
	}
	if spec.multicast() {
		for _, d := range spec.Dsts {
			if err := check(d, "dst"); err != nil {
				return err
			}
		}
		return nil
	}
	return check(spec.Dst, "dst")
}

// allocOptions translates the spec's routing knobs for the allocator.
func (s ConnectionSpec) allocOptions() alloc.Options {
	return alloc.Options{Multipath: s.Multipath, MaxDetour: s.MaxDetour, Spread: s.Spread}
}

// finish turns a connection whose reservation (Fwd and Rev, or Tree) is
// committed into a live one: it takes the NI channels, preferring the
// indices in pref, and builds and submits the set-up transaction. On
// failure nothing is staged and the reservation and channels are
// released.
func (p *Platform) finish(c *Connection, pref chanPref) (*Connection, error) {
	if err := p.takeChannels(c, pref); err != nil {
		p.releaseSlots(c)
		return nil, err
	}
	c.ID = p.nextConnID
	c.State = Opening
	p.nextConnID++
	c.Setup = Span{
		Op:          "setup",
		ID:          c.ID,
		SubmitCycle: p.Sim.Cycle(),
		Detail:      p.connDetail(c.Spec),
	}
	err := p.build(c, true)
	if err == nil {
		err = p.submit(&c.Setup)
	}
	if err != nil {
		p.releaseSlots(c)
		p.freeChannels(c)
		return nil, err
	}
	p.connections[c.ID] = c
	return c, nil
}

// takeChannels assigns c's NI channels, preferring the indices in pref;
// on failure it frees the ones it took.
func (p *Platform) takeChannels(c *Connection, pref chanPref) error {
	src, err := p.allocChannelPref(c.Spec.Src, pref.src)
	if err != nil {
		return err
	}
	if c.Tree == nil {
		dst, err := p.allocChannelPref(c.Spec.Dst, pref.dst)
		if err != nil {
			p.freeChannel(c.Spec.Src, src)
			return err
		}
		c.SrcChannel, c.DstChannel = src, dst
		return nil
	}
	c.SrcChannel = src
	c.DstChannels = make(map[topology.NodeID]int, len(c.Spec.Dsts))
	for _, d := range c.Spec.Dsts {
		want, ok := pref.dsts[d]
		if !ok {
			want = -1
		}
		ch, err := p.allocChannelPref(d, want)
		if err != nil {
			p.freeChannels(c)
			return err
		}
		c.DstChannels[d] = ch
	}
	return nil
}

// releaseSlots returns c's slot reservation to the allocator.
func (p *Platform) releaseSlots(c *Connection) {
	if c.Tree != nil {
		p.Alloc.ReleaseMulticast(c.Tree)
		return
	}
	p.Alloc.ReleaseUnicast(c.Fwd)
	p.Alloc.ReleaseUnicast(c.Rev)
}

// freeChannels returns the NI channels c holds.
func (p *Platform) freeChannels(c *Connection) {
	p.freeChannel(c.Spec.Src, c.SrcChannel)
	if c.Tree == nil {
		p.freeChannel(c.Spec.Dst, c.DstChannel)
	}
	for d, ch := range c.DstChannels {
		p.freeChannel(d, ch)
	}
}

// RestoreUnicast wires an already-committed reservation pair into a live
// connection: channel indices are assigned, the configuration packets are
// built and submitted, and the connection is returned in state Opening.
// The reservations must already be committed in p.Alloc (the admission
// control plane adopts them from a snapshot before calling this); on
// failure they are released. SlotsRev of the spec must carry the
// normalized value the original admission used.
func (p *Platform) RestoreUnicast(spec ConnectionSpec, fwd, rev *alloc.Unicast) (*Connection, error) {
	return p.finish(&Connection{Spec: spec, Fwd: fwd, Rev: rev}, noPref)
}

// RestoreMulticast wires an already-committed multicast tree into a live
// connection; see RestoreUnicast.
func (p *Platform) RestoreMulticast(spec ConnectionSpec, tree *alloc.Multicast) (*Connection, error) {
	return p.finish(&Connection{Spec: spec, Tree: tree}, noPref)
}

// connDetail renders a connection's endpoints for span/event records.
func (p *Platform) connDetail(spec ConnectionSpec) string {
	src := p.Mesh.Node(spec.Src).Name
	if !spec.multicast() {
		return src + ">" + p.Mesh.Node(spec.Dst).Name
	}
	ds := make([]string, len(spec.Dsts))
	for i, d := range spec.Dsts {
		ds[i] = p.Mesh.Node(d).Name
	}
	sort.Strings(ds)
	return src + ">{" + strings.Join(ds, ",") + "}"
}

// AwaitOpen runs the platform until every pending configuration, c's
// among them, has settled; CompleteConfig settles c's set-up span and
// marks c Open.
func (p *Platform) AwaitOpen(c *Connection, budget uint64) error {
	_, err := p.CompleteConfig(budget)
	return err
}

// SetupCycles returns the measured set-up duration (submission to settled
// configuration), the Table III metric.
func (c *Connection) SetupCycles() uint64 { return c.Setup.Cycles() }

// Close tears the connection down: slots are disabled destination-first
// (the same packet structure as set-up, with no-forward specs), flags and
// credits cleared, and allocator/channel resources released once the
// tear-down packets have been submitted. A tear-down that does not fit
// the staging queues stages nothing and leaves the connection intact.
func (p *Platform) Close(c *Connection) error {
	if c.State == Closed {
		return fmt.Errorf("core: connection %d already closed", c.ID)
	}
	if err := p.build(c, false); err != nil {
		return err
	}
	td := &Span{
		Op:          "teardown",
		ID:          c.ID,
		SubmitCycle: p.Sim.Cycle(),
		Detail:      p.connDetail(c.Spec),
	}
	if err := p.submit(td); err != nil {
		return err
	}
	p.releaseSlots(c)
	p.freeChannels(c)
	c.State = Closed
	delete(p.connections, c.ID)
	return nil
}
