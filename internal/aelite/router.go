package aelite

import (
	"daelite/internal/phit"
	"daelite/internal/sim"
)

// Router is an aelite router: stateless source routing with a three-cycle
// hop (link traversal, header inspection, crossbar traversal). Unlike the
// daelite router it must look at packet contents — the first word of each
// packet — before it can make a routing decision, which is exactly why it
// needs the extra pipeline stage and why daelite's blind TDM switching is
// faster per hop.
type Router struct {
	name string

	// inRegs and parseReg are the first two pipeline stages. Only this
	// router reads them, so they are plain fields: Eval runs the stages
	// back to front and each reads its registers before the stage in
	// front of it overwrites them.
	inWires  []*sim.Reg[phit.Flit]
	inRegs   []phit.Flit // stage 1: link register
	parseReg []parsed    // stage 2: header inspection
	outWires []*sim.Reg[phit.Flit]

	// Per-input packet walking state, advanced in stage 2.
	payloadLeft []int
	curOut      []int

	// conflicts counts output collisions (must stay zero under a valid
	// contention-free schedule).
	conflicts uint64
	// forwarded counts valid words driven on outputs (energy model
	// activity).
	forwarded uint64
}

// parsed is the stage-2 register contents: the flit plus its resolved
// output port.
type parsed struct {
	flit phit.Flit
	out  int // -1: no flit
}

// NewRouter creates an aelite router with the given port counts.
func NewRouter(s *sim.Simulator, name string, numIn, numOut int) *Router {
	r := &Router{
		name:        name,
		inWires:     make([]*sim.Reg[phit.Flit], numIn),
		inRegs:      make([]phit.Flit, numIn),
		parseReg:    make([]parsed, numIn),
		outWires:    make([]*sim.Reg[phit.Flit], numOut),
		payloadLeft: make([]int, numIn),
		curOut:      make([]int, numIn),
	}
	for i := 0; i < numIn; i++ {
		r.parseReg[i] = parsed{out: -1}
		r.curOut[i] = -1
	}
	for o := 0; o < numOut; o++ {
		r.outWires[o] = sim.NewReg(s, phit.Idle())
	}
	s.Add(r)
	return r
}

// Name implements sim.Component.
func (r *Router) Name() string { return r.name }

// ConnectInput attaches the wire feeding input port i.
func (r *Router) ConnectInput(i int, w *sim.Reg[phit.Flit]) { r.inWires[i] = w }

// OutputWire returns the wire driven by output port o.
func (r *Router) OutputWire(o int) *sim.Reg[phit.Flit] { return r.outWires[o] }

// Conflicts returns the number of output collisions observed (always zero
// under a valid schedule).
func (r *Router) Conflicts() uint64 { return r.conflicts }

// Forwarded returns the number of valid words driven on outputs.
func (r *Router) Forwarded() uint64 { return r.forwarded }

// Eval implements sim.Component.
func (r *Router) Eval(cycle uint64) {
	// Stage 3: crossbar. With a valid contention-free schedule at most
	// one input targets each output per cycle.
	var claimed uint64
	for o := range r.outWires {
		r.outWires[o].Set(phit.Idle())
	}
	for _, p := range r.parseReg {
		if p.out < 0 || p.out >= len(r.outWires) {
			continue
		}
		if claimed&(1<<p.out) != 0 {
			r.conflicts++
			continue
		}
		claimed |= 1 << p.out
		if p.flit.Valid {
			r.forwarded++
		}
		r.outWires[p.out].Set(p.flit)
	}

	// Stage 2: header inspection. A valid word when no payload is
	// outstanding is a header: decode it, pick the output, and forward
	// the header with this hop consumed so the next router sees its own
	// hop in the low bits.
	for i, f := range r.inRegs {
		if !f.Valid {
			r.parseReg[i] = parsed{out: -1}
			continue
		}
		if r.payloadLeft[i] == 0 {
			h := DecodeHeader(uint32(f.Data))
			port, rest := h.NextHop()
			enc, err := rest.Encode()
			if err != nil {
				// Unreachable: shifting cannot overflow fields.
				r.parseReg[i] = parsed{out: -1}
				continue
			}
			r.curOut[i] = port
			r.payloadLeft[i] = h.Length
			f.Data = phit.Word(enc)
			r.parseReg[i] = parsed{flit: f, out: port}
			continue
		}
		r.payloadLeft[i]--
		r.parseReg[i] = parsed{flit: f, out: r.curOut[i]}
	}

	// Stage 1: latch links.
	for i, w := range r.inWires {
		if w != nil {
			r.inRegs[i] = w.Get()
		} else {
			r.inRegs[i] = phit.Idle()
		}
	}
}
