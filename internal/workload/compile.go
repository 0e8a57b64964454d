package workload

import (
	"fmt"

	"daelite/internal/spec"
)

// ConnReq is one compiled connection request of a phase, addressed in
// mesh coordinates so the same compiled pack can drive an in-process
// platform (the runner) or the admission control plane (a load plan).
type ConnReq struct {
	Name string
	Src  spec.Coord
	// Dst is set for unicast, Dsts for multicast — exactly one of them.
	Dst  *spec.Coord
	Dsts []spec.Coord
	// Slots is the forward TDM reservation; unicast additionally carries
	// the implicit 1-slot reverse credit channel.
	Slots int
	// Words is the bounded payload each source offers during the phase
	// (per destination, for multicast trees).
	Words uint64
}

// Phase is one compiled traffic phase: its connections are opened
// together, driven until every bounded source drains, then torn down
// before the next phase begins.
type Phase struct {
	Name string
	// Kind is "broadcast" or "activation" for DNN packs, the matrix
	// pattern for switch packs.
	Kind string
	// Layer is the DNN layer index (-1 for switch phases).
	Layer int
	Conns []ConnReq
	// MACs is the compute work the phase triggers (DNN broadcast: the
	// layer computes once its weights arrive); priced by the energy
	// model, not simulated.
	MACs uint64
	// MMemWords counts words read from main memory to feed the phase
	// (DNN broadcast payloads).
	MMemWords uint64
}

// OfferedWords sums the words every sink of the phase should receive.
func (ph *Phase) OfferedWords() uint64 {
	var total uint64
	for _, c := range ph.Conns {
		n := uint64(1)
		if len(c.Dsts) > 0 {
			n = uint64(len(c.Dsts))
		}
		total += c.Words * n
	}
	return total
}

// Compiled is a fully expanded pack: the platform description plus the
// phase schedule. Compilation is a pure function of the Spec.
type Compiled struct {
	Spec *Spec
	// Platform is the internal/spec platform description (no
	// start-of-day connections; phases open their own).
	Platform spec.Spec
	Phases   []Phase
}

// Name returns the pack's display name.
func (c *Compiled) Name() string {
	if c.Spec.Name != "" {
		return c.Spec.Name
	}
	return c.Spec.Kind
}

// Compile expands a validated pack spec into its phase schedule and
// proves per-port admissibility: for every phase, the slot demand summed
// per NI ingress and egress (including the implicit unicast reverse
// channel) must fit the wheel, and the per-NI connection count must fit
// the channel file. A spec that over-reserves is rejected here — the
// compiler never emits a phase whose nominal demand exceeds hardware
// capacity, so any admission refusal at run time is path contention
// inside the fabric, never an inadmissible request.
func Compile(s *Spec) (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{Spec: s, Platform: s.platformSpec()}
	var err error
	switch s.Kind {
	case "dnn":
		c.Phases, err = compileDNN(s)
	case "switch":
		c.Phases, err = compileSwitch(s)
	}
	if err != nil {
		return nil, err
	}
	wheel, _, channels := s.Resolved()
	for i := range c.Phases {
		if err := checkPhaseDemand(&c.Phases[i], wheel, channels); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// portDemand tracks one NI's nominal slot and channel budgets during
// demand accounting.
type portDemand struct {
	tx, rx     int // slot demand per direction
	txCh, rxCh int // channel file demand per side
}

// phaseDemand sums a phase's nominal per-NI demand. Unicast reserves
// Slots forward plus one reverse credit slot; a multicast tree reserves
// Slots at the source and at every destination and runs creditless.
func phaseDemand(ph *Phase) map[spec.Coord]*portDemand {
	demand := map[spec.Coord]*portDemand{}
	at := func(c spec.Coord) *portDemand {
		d := demand[c]
		if d == nil {
			d = &portDemand{}
			demand[c] = d
		}
		return d
	}
	for _, cn := range ph.Conns {
		src := at(cn.Src)
		src.tx += cn.Slots
		src.txCh++
		if cn.Dst != nil {
			src.rx++ // reverse credit slot
			dst := at(*cn.Dst)
			dst.rx += cn.Slots
			dst.tx++
			dst.rxCh++
		}
		for _, d := range cn.Dsts {
			dst := at(d)
			dst.rx += cn.Slots
			dst.rxCh++
		}
	}
	return demand
}

func checkPhaseDemand(ph *Phase, wheel, channels int) error {
	for coord, d := range phaseDemand(ph) {
		if d.tx > wheel || d.rx > wheel {
			return fmt.Errorf("workload: phase %s over-reserves NI (%d,%d,%d): tx=%d rx=%d slots against a %d-slot wheel",
				ph.Name, coord.X, coord.Y, coord.NI, d.tx, d.rx, wheel)
		}
		if d.txCh > channels || d.rxCh > channels {
			return fmt.Errorf("workload: phase %s needs %d/%d channels at NI (%d,%d,%d), only %d available",
				ph.Name, d.txCh, d.rxCh, coord.X, coord.Y, coord.NI, channels)
		}
	}
	return nil
}

// words converts a byte volume to NoC words, rounding up.
func words(bytes, bytesPerWord int) uint64 {
	if bytesPerWord <= 0 {
		bytesPerWord = 4
	}
	return uint64((bytes + bytesPerWord - 1) / bytesPerWord)
}
