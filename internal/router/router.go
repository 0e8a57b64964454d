// Package router implements the daelite network router (Fig. 4 of the
// paper): a blindly-switching TDM crossbar with a slot table per output
// port, a fixed two-cycle hop latency (one cycle of link traversal, one of
// crossbar traversal — data is buffered twice), a configuration submodule
// on the broadcast configuration tree (its decoding is done once per
// region by configtree, which applies the router's effects through its
// cfgproto.Sink), and multicast by construction (several outputs may
// select the same input in the same slot).
//
// Timing convention (shared by the whole repository): a component's Eval
// at cycle c computes the values its output registers present during cycle
// c+1, exactly like RTL next-state logic. A flit on the router's input
// wire during slot s appears on the selected output wire during slot s+1,
// so the slot-table index of a router equals the source injection slot
// plus the router's position along the path — the invariant the
// configuration protocol's mask rotation relies on.
package router

import (
	"fmt"
	"math/bits"

	"daelite/internal/cfgproto"
	"daelite/internal/configtree"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/slots"
)

// Params holds the static hardware parameters of a router.
type Params struct {
	// Wheel is the slot-table size (number of TDM slots).
	Wheel int
	// SlotWords is the slot length in words (2 in daelite).
	SlotWords int
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Wheel <= 0 || p.Wheel > slots.MaxTableSize {
		return fmt.Errorf("router: wheel %d out of range", p.Wheel)
	}
	if p.SlotWords <= 0 {
		return fmt.Errorf("router: slot words %d out of range", p.SlotWords)
	}
	return nil
}

// Router is one daelite router instance.
type Router struct {
	name   string
	id     int // configuration element ID
	params Params

	// Data path. inWires[i] is the wire feeding input port i; outWires[o]
	// is the wire driven by output port o. The router owns the output
	// wires; upstream elements own the input wires. inRegs is the first
	// buffering stage, read only here and so a plain field: Eval reads
	// it before overwriting it.
	inWires  []*sim.Reg[phit.Flit]
	inRegs   []phit.Flit
	outWires []*sim.Reg[phit.Flit]
	// driving has bit o set while output o may hold a non-idle flit, so
	// only those outputs and the ones the current slot drives need a
	// look. Invariant: a clear bit implies outWires[o] carries
	// phit.Idle() — external writers (the fault injector) only ever
	// overwrite driven (non-idle) wires with idle, never the reverse.
	driving uint8

	table *slots.RouterTable

	// forwarded counts valid words driven on any output (activity for
	// the energy model); outBusy attributes the same count to each
	// output port, so per-link slot occupancy can be compared against
	// the allocator's reservations.
	forwarded uint64
	outBusy   []uint64

	// held has bit i set while input register i holds a non-idle flit
	// (the values the last Eval latched; ports <= cfgproto.MaxRouterPort
	// fit the byte); act is the kernel handle the router sleeps and wakes
	// through.
	held uint8
	act  sim.Activity
}

// New creates a router with the given port counts, registers its state
// with s, and returns it. inWires are the link wires feeding each input
// port (may contain nils to be connected later via ConnectInput).
func New(s *sim.Simulator, name string, id int, numIn, numOut int, params Params) (*Router, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if numOut > cfgproto.MaxRouterPort+1 || numIn > cfgproto.MaxRouterPort+1 {
		return nil, fmt.Errorf("router %s: arity %d/%d exceeds configuration encoding limit %d",
			name, numIn, numOut, cfgproto.MaxRouterPort+1)
	}
	r := &Router{
		name:     name,
		id:       id,
		params:   params,
		inWires:  make([]*sim.Reg[phit.Flit], numIn),
		inRegs:   make([]phit.Flit, numIn),
		outWires: make([]*sim.Reg[phit.Flit], numOut),
		outBusy:  make([]uint64, numOut),
		table:    slots.NewRouterTable(numOut, params.Wheel),
	}
	for o := range r.outWires {
		r.outWires[o] = sim.NewReg(s, phit.Idle())
	}
	r.act = s.Add(r)
	return r, nil
}

// Name implements sim.Component.
func (r *Router) Name() string { return r.name }

// ID returns the configuration element ID.
func (r *Router) ID() int { return r.id }

// ConnectInput attaches the wire feeding input port i.
func (r *Router) ConnectInput(i int, wire *sim.Reg[phit.Flit]) {
	r.inWires[i] = wire
	wire.Wakes(r.act, i)
}

// OutputWire returns the wire driven by output port o, to be connected as
// the downstream element's input.
func (r *Router) OutputWire(o int) *sim.Reg[phit.Flit] { return r.outWires[o] }

// ConnectConfigIn attaches the router's configuration submodule to the
// tree below at — the module's root (Module.ForwardWire) or the router's
// tree parent — and returns its place there, where its tree children
// attach in turn.
func (r *Router) ConnectConfigIn(at *configtree.Node) *configtree.Node {
	return at.Attach(r.id, r.params.Wheel, false, (*routerSink)(r))
}

// Table exposes the slot table for inspection by tests and probes.
func (r *Router) Table() *slots.RouterTable { return r.table }

// Forwarded returns the number of valid words this router has driven on
// its outputs — the activity count the energy model multiplies by the
// per-traversal energy.
func (r *Router) Forwarded() uint64 { return r.forwarded }

// OutputBusy returns the number of valid words driven on output port o,
// the per-link slot-occupancy counter telemetry exports.
func (r *Router) OutputBusy(o int) uint64 { return r.outBusy[o] }

// NumOutputs returns the router's output port count.
func (r *Router) NumOutputs() int { return len(r.outWires) }

// Eval implements sim.Component. The router goes to sleep when every
// register it read this cycle was idle: its next Eval would drive the
// same idle values again. Any change on an input wire wakes it, and only
// what changed is read again. A slot-table write from the configuration
// tree needs no wake: a sleeping router holds no flit to switch.
func (r *Router) Eval(cycle uint64) {
	changed := r.act.Changed()
	held := r.held

	// The stages run back to front, so each reads its own registers
	// before the stage in front of it overwrites them.
	//
	// Stage 2: crossbar. The output registers present their values
	// during cycle+1, so the slot table is indexed by the slot of
	// cycle+1 (the output slot). Only the outputs that slot drives and
	// those still holding a flit can change: an idle selected input
	// drives idle, and an already-idle wire needs no re-drive at all.
	outSlot := slots.SlotOfCycle(cycle+1, r.params.SlotWords, r.params.Wheel)
	drives := r.table.Drives(outSlot)
	if held == 0 {
		drives = 0 // with every input register idle no output carries anything
	}
	for w := drives | r.driving; w != 0; w &= w - 1 {
		o := bits.TrailingZeros8(w)
		in := slots.NoInput
		if drives&(1<<o) != 0 {
			in = r.table.Input(o, outSlot)
		}
		if in < 0 || in >= len(r.inRegs) || held&(1<<in) == 0 {
			if r.driving&(1<<o) != 0 {
				r.outWires[o].Set(phit.Idle())
				r.driving &^= 1 << o
			}
			continue
		}
		r.driving |= 1 << o
		f := r.inRegs[in]
		if f.Valid {
			r.forwarded++
			r.outBusy[o]++
		}
		r.outWires[o].Set(f)
	}

	// Stage 1: latch the input wires that changed into the input
	// registers; an unchanged wire still holds what its register holds.
	for ch := changed & (1<<len(r.inWires) - 1); ch != 0; ch &= ch - 1 {
		i := bits.TrailingZeros32(ch)
		f := r.inWires[i].Get()
		r.inRegs[i] = f
		if f.IsIdle() {
			r.held &^= 1 << i
		} else {
			r.held |= 1 << i
		}
	}

	if held == 0 && r.held == 0 {
		r.act.Sleep()
	}
}

// routerSink adapts the router to cfgproto.Sink.
type routerSink Router

func (rs *routerSink) ApplySlots(mask slots.Mask, spec cfgproto.PortSpec) {
	r := (*Router)(rs)
	if spec.ForNI {
		return // malformed: NI spec addressed to a router; ignore
	}
	if spec.Out < 0 || spec.Out >= r.table.NumOutputs() {
		return // out-of-range output: drop, as hardware would
	}
	_ = r.table.Set(spec.Out, mask, spec.In)
}

func (rs *routerSink) WriteReg(reg, value uint8) {
	// Routers hold no writable registers beyond the slot table.
}

func (rs *routerSink) ReadReg(reg uint8) (uint8, bool) {
	return 0, false
}
