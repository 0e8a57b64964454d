// Package stats samples link activity of a running platform and reports
// utilization — the observability layer a NoC deployment needs to confirm
// that reserved bandwidth is actually being used and that idle slots are
// where the allocator says they are.
//
// The monitor is a thin view over a telemetry registry: per-link payload
// and credit counters live in registry metrics (the platform's attached
// registry when there is one, so exporters see them; a private one
// otherwise), and the human-readable report renders from the same store.
// Payload in a slot the allocator never reserved is the conformance
// contention checker's to catch (internal/conformance).
package stats

import (
	"fmt"
	"sort"

	"daelite/internal/core"
	"daelite/internal/phit"
	"daelite/internal/report"
	"daelite/internal/sim"
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

// Monitor samples every data link of a platform each cycle.
type Monitor struct {
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
	m := &Monitor{reg: reg, shared: shared, samples: make(map[topology.LinkID]*LinkSample)}
	for _, l := range p.Mesh.Links() {
		w := p.LinkWire(l)
		name := fmt.Sprintf("%s->%s", p.Mesh.Node(l.From).Name, p.Mesh.Node(l.To).Name)
		lbl := telemetry.L("link", name)
		s := &LinkSample{
			Link:       l,
			Name:       name,
			cycles:     &m.cycles,
			valid:      reg.Counter("link_payload_cycles_total", lbl),
			creditOnly: reg.Counter("link_credit_cycles_total", lbl),
		}
		if shared {
			s.util = reg.Series("link_utilization", 0, lbl)
		}
		m.samples[l.ID] = s
		m.wires = append(m.wires, monWire{s: s, wire: w})
	}
	p.Sim.AddProbe(func(cycle uint64) {
		m.cycles++
		for i := range m.wires {
			mw := &m.wires[i]
			f := mw.wire.Get()
			switch {
			case f.Valid:
				mw.s.valid.Inc()
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
