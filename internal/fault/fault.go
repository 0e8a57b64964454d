// Package fault is a deterministic chaos layer for daelite platforms: it
// injects hardware faults — dead links, payload bit errors, lost or
// corrupted configuration symbols, slot-table upsets — into a running
// platform without modifying any hardware model.
//
// The injector exploits the sim kernel's two-phase semantics: it registers
// through AddOrdered, so its Eval runs after every platform element each
// cycle — even when the platform evaluates on the parallel kernel — and
// its Reg.Set overrides the pending value the owning element just drove.
// Peek exposes that pending value, which is what makes corrupt-in-place
// faults (bit flips) possible. Because the ordered tail runs in
// registration order and all randomness comes from a seeded sim.RNG, a
// fault schedule is fully determined by (seed, cycle-window, target): the
// same run replays bit-identically, which is the property every chaos
// experiment in this repository asserts.
package fault

import (
	"fmt"
	"sort"

	"daelite/internal/core"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/slots"
	"daelite/internal/telemetry"
	"daelite/internal/telemetry/tracing"
	"daelite/internal/topology"
)

// Kind enumerates the supported fault models.
type Kind int

const (
	// LinkDown forces a data link to idle for the whole active window —
	// the permanent-failure model (open-ended when To == 0). In-flight
	// words on the link are lost, exactly as a severed wire would lose
	// them.
	LinkDown Kind = iota
	// PayloadFlip XORs one payload bit of valid flits crossing a link
	// during the window — the transient (soft) error model.
	PayloadFlip
	// ConfigDrop deletes 7-bit configuration symbols at the tree root
	// during the window, desynchronizing the decoders' framing.
	ConfigDrop
	// ConfigFlip corrupts configuration symbols at the tree root.
	ConfigFlip
	// SlotTableFlip upsets one router slot-table entry at cycle From: a
	// programmed entry is cleared, an idle one is driven from input 0 —
	// the single-event-upset model for configuration state.
	SlotTableFlip
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case PayloadFlip:
		return "payload-flip"
	case ConfigDrop:
		return "config-drop"
	case ConfigFlip:
		return "config-flip"
	case SlotTableFlip:
		return "slot-table-flip"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one scheduled fault. The active window is [From, To) in cycles;
// To == 0 means open-ended (LinkDown) or one-shot at From (SlotTableFlip).
type Fault struct {
	Kind Kind

	// Link targets LinkDown and PayloadFlip.
	Link topology.LinkID
	// Router, Out and Slot target SlotTableFlip.
	Router topology.NodeID
	Out    int
	Slot   int

	From, To uint64

	// Prob is the per-cycle firing probability of the transient kinds
	// (PayloadFlip, ConfigDrop, ConfigFlip); 0 means 1.0 (fire whenever
	// a symbol is present in the window).
	Prob float64
	// Bit is the payload bit to flip for PayloadFlip; -1 picks a random
	// bit per hit.
	Bit int
}

// String renders a fault for logs.
func (f Fault) String() string {
	switch f.Kind {
	case SlotTableFlip:
		return fmt.Sprintf("%s router=%d out=%d slot=%d @%d", f.Kind, f.Router, f.Out, f.Slot, f.From)
	case LinkDown:
		if f.To == 0 {
			return fmt.Sprintf("%s link=%d @%d..", f.Kind, f.Link, f.From)
		}
		fallthrough
	default:
		return fmt.Sprintf("%s link=%d @[%d,%d)", f.Kind, f.Link, f.From, f.To)
	}
}

// Counters accumulates observed fault activations.
type Counters struct {
	// FlitsKilled counts flits destroyed by LinkDown faults: those
	// carrying payload or a slot's non-zero credit return (an idle
	// credit return drives no credit wires, so there is nothing to
	// kill).
	FlitsKilled uint64
	// PayloadFlips counts payload bits flipped.
	PayloadFlips uint64
	// ConfigDrops and ConfigFlips count configuration symbols lost and
	// corrupted at the tree root.
	ConfigDrops uint64
	ConfigFlips uint64
	// TableFlips counts slot-table upsets applied.
	TableFlips uint64
}

// Total sums all activations.
func (c Counters) Total() uint64 {
	return c.FlitsKilled + c.PayloadFlips + c.ConfigDrops + c.ConfigFlips + c.TableFlips
}

// LinkErrors attributes activations to one data link.
type LinkErrors struct {
	// Killed counts flits destroyed on the link (LinkDown); Flipped
	// counts payload bits corrupted on it (PayloadFlip).
	Killed  uint64
	Flipped uint64
}

// Injector drives a fault schedule into a platform. It is a sim.Component
// that must be attached after the platform is built; Attach registers it
// in the simulator's ordered tail (sim.AddOrdered), which guarantees it
// evaluates after every platform element.
type Injector struct {
	name   string
	p      *core.Platform
	rng    *sim.RNG
	faults []Fault
	wires  map[topology.LinkID]*sim.Reg[phit.Flit]
	fired  []bool // one-shot bookkeeping per fault
	c      Counters
	links  map[topology.LinkID]*LinkErrors

	// Telemetry (optional): each fault emits one event when it first
	// becomes active, and the activation counters are mirrored into the
	// registry every cycle the injector runs.
	tel       *telemetry.Registry
	announced []bool
	telKilled *telemetry.Counter
	telFlips  *telemetry.Counter
	telCDrops *telemetry.Counter
	telCFlips *telemetry.Counter
	telTable  *telemetry.Counter
}

// Attach validates the fault schedule, registers an injector with the
// platform's simulator, and returns it. The seed fixes all randomness of
// the schedule (bit choices, probabilistic firing).
func Attach(p *core.Platform, seed uint64, faults ...Fault) (*Injector, error) {
	inj := &Injector{
		name:   "fault-injector",
		p:      p,
		rng:    sim.NewRNG(seed),
		faults: append([]Fault(nil), faults...),
		wires:  make(map[topology.LinkID]*sim.Reg[phit.Flit]),
		fired:  make([]bool, len(faults)),
		links:  make(map[topology.LinkID]*LinkErrors),
	}
	for i := range inj.faults {
		f := &inj.faults[i]
		switch f.Kind {
		case LinkDown, PayloadFlip:
			w, err := linkWire(p, f.Link)
			if err != nil {
				return nil, fmt.Errorf("fault %d (%s): %w", i, f, err)
			}
			inj.wires[f.Link] = w
		case ConfigDrop, ConfigFlip:
			// Target is the tree root wire; nothing to resolve.
		case SlotTableFlip:
			r := p.Routers[f.Router]
			if r == nil {
				return nil, fmt.Errorf("fault %d: node %d is not a router", i, f.Router)
			}
			t := r.Table()
			if f.Out < 0 || f.Out >= t.NumOutputs() || f.Slot < 0 || f.Slot >= t.Size() {
				return nil, fmt.Errorf("fault %d: table entry (%d,%d) out of range", i, f.Out, f.Slot)
			}
		default:
			return nil, fmt.Errorf("fault %d: unknown kind %d", i, int(f.Kind))
		}
	}
	p.Sim.AddOrdered(inj)
	return inj, nil
}

// linkWire resolves the source-end wire of a data link, refusing a link
// ID outside the mesh (a fault's link comes from user input).
func linkWire(p *core.Platform, id topology.LinkID) (*sim.Reg[phit.Flit], error) {
	if id < 0 || id >= topology.LinkID(p.Mesh.NumLinks()) {
		return nil, fmt.Errorf("fault: link %d out of range", id)
	}
	return p.LinkWire(p.Mesh.Link(id)), nil
}

// Name implements sim.Component.
func (inj *Injector) Name() string { return inj.name }

// AttachTelemetry publishes the injector into a registry: per-kind
// activation counters (mirrored as the injector runs) and one "fault"
// event per scheduled fault when it first becomes active. Attach before
// the run; the injector evaluates in the ordered tail, so the published
// values are deterministic.
func (inj *Injector) AttachTelemetry(reg *telemetry.Registry) {
	inj.tel = reg
	inj.announced = make([]bool, len(inj.faults))
	inj.telKilled = reg.Counter("fault_flits_killed_total")
	inj.telFlips = reg.Counter("fault_payload_flips_total")
	inj.telCDrops = reg.Counter("fault_config_drops_total")
	inj.telCFlips = reg.Counter("fault_config_flips_total")
	inj.telTable = reg.Counter("fault_table_flips_total")
}

// Counters returns the activation counters so far.
func (inj *Injector) Counters() Counters { return inj.c }

// ErrorsByLink returns the per-link activation counts — the attribution
// the stats layer merges into its link utilization report.
func (inj *Injector) ErrorsByLink() map[topology.LinkID]LinkErrors {
	out := make(map[topology.LinkID]LinkErrors, len(inj.links))
	for id, e := range inj.links {
		out[id] = *e
	}
	return out
}

func (inj *Injector) linkErrors(id topology.LinkID) *LinkErrors {
	e := inj.links[id]
	if e == nil {
		e = &LinkErrors{}
		inj.links[id] = e
	}
	return e
}

// Faults returns the schedule.
func (inj *Injector) Faults() []Fault { return append([]Fault(nil), inj.faults...) }

// DeadLinks returns the links with an active LinkDown fault at cycle c, in
// ID order — the ground truth a repair flow's diagnosis is checked against.
func (inj *Injector) DeadLinks(c uint64) []topology.LinkID {
	var out []topology.LinkID
	for _, f := range inj.faults {
		if f.Kind == LinkDown && c >= f.From && (f.To == 0 || c < f.To) {
			out = append(out, f.Link)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Eval implements sim.Component. Running after every platform element, it
// overrides the pending wire values for cycle+1.
func (inj *Injector) Eval(cycle uint64) {
	c1 := cycle + 1 // the cycle the pending wire values belong to
	for i := range inj.faults {
		f := &inj.faults[i]
		if f.Kind == SlotTableFlip {
			if !inj.fired[i] && c1 >= f.From {
				inj.fired[i] = true
				inj.announce(i, c1)
				inj.flipTableEntry(f)
			}
			continue
		}
		if c1 < f.From || (f.To != 0 && c1 >= f.To) {
			continue
		}
		inj.announce(i, c1)
		switch f.Kind {
		case LinkDown:
			w := inj.wires[f.Link]
			if v := w.Peek(); v.Valid || v.CreditValid {
				inj.c.FlitsKilled++
				inj.linkErrors(f.Link).Killed++
			}
			w.Set(phit.Idle())
		case PayloadFlip:
			w := inj.wires[f.Link]
			v := w.Peek()
			if !v.Valid || !inj.fires(f) {
				continue
			}
			bit := f.Bit
			if bit < 0 || bit >= phit.WordBits {
				bit = inj.rng.Intn(phit.WordBits)
			}
			v.Data ^= 1 << uint(bit)
			w.Set(v)
			inj.c.PayloadFlips++
			inj.linkErrors(f.Link).Flipped++
		case ConfigDrop:
			w := inj.p.Host.RootWire()
			if v := w.Peek(); v.Valid && inj.fires(f) {
				w.Set(phit.ConfigWord{})
				inj.c.ConfigDrops++
			}
		case ConfigFlip:
			w := inj.p.Host.RootWire()
			if v := w.Peek(); v.Valid && inj.fires(f) {
				v.Bits ^= 1 << uint(inj.rng.Intn(phit.ConfigWordBits))
				w.Set(v)
				inj.c.ConfigFlips++
			}
		}
	}
	if inj.tel != nil {
		inj.telKilled.Store(inj.c.FlitsKilled)
		inj.telFlips.Store(inj.c.PayloadFlips)
		inj.telCDrops.Store(inj.c.ConfigDrops)
		inj.telCFlips.Store(inj.c.ConfigFlips)
		inj.telTable.Store(inj.c.TableFlips)
	}
}

// announce emits the one-time activation event of fault i, into the
// telemetry registry and the causal trace (whichever is attached).
func (inj *Injector) announce(i int, cycle uint64) {
	tr := inj.p.Tracer()
	if inj.tel == nil && tr == nil {
		return
	}
	if inj.announced == nil {
		inj.announced = make([]bool, len(inj.faults))
	}
	if inj.announced[i] {
		return
	}
	inj.announced[i] = true
	if inj.tel != nil {
		inj.tel.Emit(telemetry.Event{Cycle: cycle, Kind: "fault", Detail: inj.faults[i].String()})
	}
	tr.Point(tracing.SpanRef{}, "fault", "fault", inj.faults[i].String(), cycle)
}

// fires decides a transient fault's per-cycle activation.
func (inj *Injector) fires(f *Fault) bool {
	return f.Prob <= 0 || f.Prob >= 1 || inj.rng.Float64() < f.Prob
}

// flipTableEntry upsets one router slot-table entry: a programmed entry
// loses its valid bit, an idle one gains a spurious connection to input 0.
func (inj *Injector) flipTableEntry(f *Fault) {
	t := inj.p.Routers[f.Router].Table()
	mask := slots.NewMask(t.Size()).With(f.Slot)
	in := t.Input(f.Out, f.Slot)
	upset := slots.NoInput
	if in == slots.NoInput {
		upset = 0
	}
	_ = t.Set(f.Out, mask, upset)
	inj.c.TableFlips++
}

// Commit implements sim.Component.
func (inj *Injector) Commit() {}

// Quiescence implements sim.Quiescer. A scheduled fault bounds the skip
// horizon so the step in which it arms — Eval(From-1), whose pending
// wire values belong to cycle From — always executes for real (that is
// also where the one-time activation announcement fires). Active faults
// are quiet: the kernel asks only while every element sleeps, so every
// wire is idle and stays idle — a LinkDown kills nothing and the
// probabilistic kinds, which fire on valid words or symbols only, draw
// no randomness.
func (inj *Injector) Quiescence(now uint64) sim.Quiescence {
	q := sim.Quiescence{Quiet: true}
	bound := func(until uint64) {
		if q.Until == 0 || until < q.Until {
			q.Until = until
		}
	}
	for i := range inj.faults {
		f := &inj.faults[i]
		if f.Kind == SlotTableFlip && !inj.fired[i] && f.From <= now+1 {
			return sim.Quiescence{}
		}
		if now+1 < f.From {
			bound(f.From - 1)
		}
	}
	return q
}

// RouterLinks returns the router-to-router links of a platform in ID order
// — the usual candidate set for link faults (NI links would only isolate a
// single endpoint).
func RouterLinks(p *core.Platform) []topology.LinkID {
	var out []topology.LinkID
	for _, l := range p.Mesh.Links() {
		if _, fromR := p.Routers[l.From]; !fromR {
			continue
		}
		if _, toR := p.Routers[l.To]; !toR {
			continue
		}
		out = append(out, l.ID)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PickLinks selects n distinct fault-site links out of candidates using the
// RNG's Perm — the deterministic tie-break shared by all chaos drivers.
func PickLinks(rng *sim.RNG, candidates []topology.LinkID, n int) []topology.LinkID {
	if n > len(candidates) {
		n = len(candidates)
	}
	out := make([]topology.LinkID, 0, n)
	for _, idx := range rng.Perm(len(candidates))[:n] {
		out = append(out, candidates[idx])
	}
	return out
}
