// Package stats samples link activity of a running platform and reports
// utilization — the observability layer a NoC deployment needs to confirm
// that reserved bandwidth is actually being used and that idle slots are
// where the allocator says they are.
//
// The monitor is a thin view over a telemetry registry: per-link payload
// and credit counters live in registry metrics (the platform's attached
// registry when there is one, so exporters see them; a private one
// otherwise), and the human-readable report renders from the same store.
// On top of the per-link totals the monitor keeps per-slot-index payload
// counts, which SlotDrift cross-checks against the allocator's slot
// tables — the tripwire for silent schedule drift (a mis-programmed or
// upset table entry forwarding words in slots the allocator never
// reserved).
package stats

import (
	"fmt"
	"sort"

	"daelite/internal/core"
	"daelite/internal/phit"
	"daelite/internal/report"
	"daelite/internal/sim"
	"daelite/internal/slots"
	"daelite/internal/telemetry"
	"daelite/internal/topology"
)

// seriesEvery is the cadence (in cycles) of the windowed link-utilization
// series appended when the platform has a telemetry registry attached.
const seriesEvery = 256

// LinkSample accumulates activity of one link. The payload and
// credit-only counters are registry metrics; Cycles is shared across all
// links of the monitor (every link is probed every cycle).
type LinkSample struct {
	Link topology.Link
	Name string

	cycles     *uint64
	valid      *telemetry.Counter
	creditOnly *telemetry.Counter
	slotValid  []uint64

	// Windowed utilization series (only with an attached platform
	// registry).
	util      *telemetry.Series
	lastValid uint64
}

// Cycles returns how many cycles the link has been observed.
func (l *LinkSample) Cycles() uint64 { return *l.cycles }

// Valid returns the cycles the link carried payload.
func (l *LinkSample) Valid() uint64 { return l.valid.Value() }

// CreditOnly returns the cycles the link carried credit bits but no
// payload: the words of slots returning a non-zero credit value (an NI
// drives no credit bits in a slot returning zero).
func (l *LinkSample) CreditOnly() uint64 { return l.creditOnly.Value() }

// Utilization returns the payload duty cycle.
func (l *LinkSample) Utilization() float64 {
	if *l.cycles == 0 {
		return 0
	}
	return float64(l.valid.Value()) / float64(*l.cycles)
}

// SlotValid returns the per-slot-index payload counts (a copy): element s
// counts payload words observed on the link during TDM slot s.
func (l *LinkSample) SlotValid() []uint64 {
	out := make([]uint64, len(l.slotValid))
	copy(out, l.slotValid)
	return out
}

// Monitor samples every data link of a platform each cycle.
type Monitor struct {
	p      *core.Platform
	reg    *telemetry.Registry
	shared bool // reg is the platform's registry (exporters see it)

	samples map[topology.LinkID]*LinkSample
	wires   []monWire
	cycles  uint64
	faults  FaultSource
}

type monWire struct {
	s    *LinkSample
	wire *sim.Reg[phit.Flit]
}

// NewMonitor attaches a monitor to a platform. It observes through a
// simulator probe, adding no hardware. If the platform has a telemetry
// registry attached (core.Platform.AttachTelemetry), the link counters
// are created there — named link_payload_cycles_total and
// link_credit_cycles_total with a link label — plus a windowed
// link_utilization series; otherwise they live in a private registry and
// only the monitor's own accessors see them.
func NewMonitor(p *core.Platform) *Monitor {
	reg := p.Telemetry()
	shared := reg != nil
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &Monitor{p: p, reg: reg, shared: shared, samples: make(map[topology.LinkID]*LinkSample)}
	for _, l := range p.Mesh.Links() {
		var w *sim.Reg[phit.Flit]
		if r, ok := p.Routers[l.From]; ok {
			w = r.OutputWire(l.FromPort)
		} else {
			w = p.NIs[l.From].OutputWire()
		}
		name := fmt.Sprintf("%s->%s", p.Mesh.Node(l.From).Name, p.Mesh.Node(l.To).Name)
		lbl := telemetry.L("link", name)
		s := &LinkSample{
			Link:       l,
			Name:       name,
			cycles:     &m.cycles,
			valid:      reg.Counter("link_payload_cycles_total", lbl),
			creditOnly: reg.Counter("link_credit_cycles_total", lbl),
			slotValid:  make([]uint64, p.Params.Wheel),
		}
		if shared {
			s.util = reg.Series("link_utilization", 0, lbl)
		}
		m.samples[l.ID] = s
		m.wires = append(m.wires, monWire{s: s, wire: w})
	}
	slotWords, wheel := p.Params.SlotWords, p.Params.Wheel
	p.Sim.AddProbe(func(cycle uint64) {
		m.cycles++
		slot := slots.SlotOfCycle(cycle, slotWords, wheel)
		for i := range m.wires {
			mw := &m.wires[i]
			f := mw.wire.Get()
			switch {
			case f.Valid:
				mw.s.valid.Inc()
				mw.s.slotValid[slot]++
			case f.CreditValid:
				mw.s.creditOnly.Inc()
			}
		}
		if shared && cycle%seriesEvery == 0 {
			for i := range m.wires {
				s := m.wires[i].s
				v := s.valid.Value()
				s.util.Append(cycle, float64(v-s.lastValid)/seriesEvery)
				s.lastValid = v
			}
		}
	})
	p.Sim.AddFastForwardHook(func(from, to uint64) {
		// The probes for cycles from+1..to never ran. The kernel skips
		// only while every element sleeps, with every wire idle, so
		// only the cycle count and the series advance.
		m.cycles += to - from
		if shared {
			for c := (from/seriesEvery + 1) * seriesEvery; c <= to; c += seriesEvery {
				for i := range m.wires {
					s := m.wires[i].s
					v := s.valid.Value()
					s.util.Append(c, float64(v-s.lastValid)/seriesEvery)
					s.lastValid = v
				}
			}
		}
	})
	return m
}

// Registry returns the registry the monitor's counters live in: the
// platform's attached registry, or the monitor's private one.
func (m *Monitor) Registry() *telemetry.Registry { return m.reg }

// Sample returns the accumulated sample of one link.
func (m *Monitor) Sample(l topology.LinkID) *LinkSample { return m.samples[l] }

// Busiest returns the n most utilized links, descending.
func (m *Monitor) Busiest(n int) []*LinkSample {
	var all []*LinkSample
	for _, s := range m.samples {
		all = append(all, s)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Utilization() != all[j].Utilization() {
			return all[i].Utilization() > all[j].Utilization()
		}
		return all[i].Name < all[j].Name
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// TotalPayloadCycles sums payload-carrying cycles over all links.
func (m *Monitor) TotalPayloadCycles() uint64 {
	var total uint64
	for _, s := range m.samples {
		total += s.valid.Value()
	}
	return total
}

// DriftEntry is one schedule-drift observation: payload seen on a link in
// a TDM slot the allocator has not reserved there.
type DriftEntry struct {
	Link  topology.LinkID
	Name  string
	Slot  int
	Count uint64
}

// SlotDrift cross-checks the observed per-slot payload against the
// allocator's current slot tables and returns every (link, slot) where
// payload appeared outside the reservation — evidence of a mis-programmed
// or upset table entry. The check compares the full observation history
// against the current reservations, so call ResetSlotCounts after
// intentional reconfiguration (tear-down, repair) to re-arm it; payload
// legitimately carried under a since-released reservation would otherwise
// be reported. An empty result proves the network forwarded words only
// where the allocator said it would.
func (m *Monitor) SlotDrift() []DriftEntry {
	var out []DriftEntry
	ids := make([]topology.LinkID, 0, len(m.samples))
	for id := range m.samples {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := m.samples[id]
		occ := m.p.Alloc.LinkOccupancy(id)
		for slot, cnt := range s.slotValid {
			if cnt > 0 && !occ.Has(slot) {
				out = append(out, DriftEntry{Link: id, Name: s.Name, Slot: slot, Count: cnt})
			}
		}
	}
	return out
}

// ResetSlotCounts clears the per-slot payload history of every link,
// re-arming SlotDrift after an intentional reconfiguration.
func (m *Monitor) ResetSlotCounts() {
	for _, s := range m.samples {
		for i := range s.slotValid {
			s.slotValid[i] = 0
		}
	}
}

// Report renders the non-idle links as a table. With a fault source
// attached (ObserveFaults) every row also carries the link's error
// counters, so a soak run shows at a glance which links took damage.
func (m *Monitor) Report(title string) string {
	if m.faults == nil {
		t := report.NewTable(title, "Link", "Payload cycles", "Credit-only cycles", "Utilization")
		for _, s := range m.Busiest(0) {
			if s.Valid() == 0 && s.CreditOnly() == 0 {
				continue
			}
			t.AddRow(s.Name, s.Valid(), s.CreditOnly(), report.Percent(s.Utilization()))
		}
		return t.Render()
	}
	errs := m.faults.ErrorsByLink()
	t := report.NewTable(title, "Link", "Payload cycles", "Credit-only cycles", "Utilization", "Killed", "Corrupted")
	for _, s := range m.Busiest(0) {
		e := errs[s.Link.ID]
		if s.Valid() == 0 && s.CreditOnly() == 0 && e.Killed == 0 && e.Flipped == 0 {
			continue
		}
		t.AddRow(s.Name, s.Valid(), s.CreditOnly(), report.Percent(s.Utilization()), e.Killed, e.Flipped)
	}
	return t.Render()
}
