package core

// Telemetry attachment: an optional, probe-driven harvest of the
// platform's component counters into a telemetry.Registry.
//
// Components never talk to the registry on the datapath — they keep the
// same plain counters they always had, and the harvest probe (which the
// kernel runs sequentially on the stepping goroutine after each commit)
// mirrors them into the registry every SampleEvery cycles. This keeps the
// disabled cost at exactly zero and bounds the enabled cost to one atomic
// store per value that moved since the last sample, and, because probes
// and the ordered tail are the only writers, every exported value is
// deterministic.

import (
	"math/bits"
	"strconv"

	"daelite/internal/telemetry"
	"daelite/internal/topology"
)

// DefaultTelemetrySample is the default harvest interval in cycles.
const DefaultTelemetrySample = 16

// counterMirror is a registry counter the harvest keeps equal to a
// component's own counter. The harvest is the handle's only writer, so
// last is what the registry holds, and store skips the atomic store of a
// value that has not moved.
type counterMirror struct {
	c    *telemetry.Counter
	last uint64
}

func mirrorCounter(c *telemetry.Counter) counterMirror { return counterMirror{c, c.Value()} }

func (m *counterMirror) store(v uint64) {
	if v != m.last {
		m.last = v
		m.c.Store(v)
	}
}

// gaugeMirror is counterMirror for a gauge.
type gaugeMirror struct {
	g    *telemetry.Gauge
	last int64
}

func mirrorGauge(g *telemetry.Gauge) gaugeMirror { return gaugeMirror{g, g.Value()} }

func (m *gaugeMirror) set(v int64) {
	if v != m.last {
		m.last = v
		m.g.Set(v)
	}
}

// chanTel caches the registry handles of one NI channel. Handles are
// created lazily the first time the channel is observed configured, so an
// 8-channel NI with one open connection costs one channel, not eight.
type chanTel struct {
	stall, tx, rx        counterMirror
	sendQ, recvQ, credit gaugeMirror
}

// niTel caches the registry handles of one NI.
type niTel struct {
	id                                     topology.NodeID
	name                                   string
	injected, delivered, dropped, rejected counterMirror
	chans                                  []*chanTel
}

// routerTel caches the registry handles of one router.
type routerTel struct {
	id        topology.NodeID
	forwarded counterMirror
	outBusy   []counterMirror
}

// spanTel caches the config_span* counters of one transaction op.
type spanTel struct {
	count, cycles, words *telemetry.Counter
}

// telHarvest is the sampling probe's cached state.
type telHarvest struct {
	every   uint64
	cycle   *telemetry.Gauge
	nis     []*niTel
	routers []*routerTel
	// Admission-engine path cache counters (alloc.CacheStats mirror).
	cacheHits, cacheMisses, cacheInvalidations, cacheTruncations counterMirror
	// spans holds each configuration op's counters, created the first
	// time the op settles so an op that never happened exports nothing.
	spans map[string]*spanTel
}

// AttachTelemetry connects a registry to the platform and registers the
// harvest probe. sampleEvery is the harvest interval in cycles (<= 0
// selects DefaultTelemetrySample); settled configuration spans and
// events are always counted immediately, independent of the interval.
// Attach at most once per platform, before the run whose data you want.
func (p *Platform) AttachTelemetry(reg *telemetry.Registry, sampleEvery int) {
	if p.tel != nil {
		panic("core: telemetry already attached")
	}
	if sampleEvery <= 0 {
		sampleEvery = DefaultTelemetrySample
	}
	p.tel = reg
	h := &telHarvest{
		every:              uint64(sampleEvery),
		cycle:              reg.Gauge("cycle"),
		cacheHits:          mirrorCounter(reg.Counter("alloc_path_cache_hits_total")),
		cacheMisses:        mirrorCounter(reg.Counter("alloc_path_cache_misses_total")),
		cacheInvalidations: mirrorCounter(reg.Counter("alloc_path_cache_invalidations_total")),
		cacheTruncations:   mirrorCounter(reg.Counter("alloc_path_truncations_total")),
		spans:              make(map[string]*spanTel),
	}
	// Nodes() is in ID order, so handle creation — and therefore the
	// registry contents — is deterministic.
	for _, n := range p.Mesh.Nodes() {
		switch n.Kind {
		case topology.NI:
			lbl := telemetry.L("ni", n.Name)
			h.nis = append(h.nis, &niTel{
				id:        n.ID,
				name:      n.Name,
				injected:  mirrorCounter(reg.Counter("ni_injected_words_total", lbl)),
				delivered: mirrorCounter(reg.Counter("ni_delivered_words_total", lbl)),
				dropped:   mirrorCounter(reg.Counter("ni_dropped_words_total", lbl)),
				rejected:  mirrorCounter(reg.Counter("ni_rejected_sends_total", lbl)),
				chans:     make([]*chanTel, p.Params.NumChannels),
			})
		case topology.Router:
			r := p.Routers[n.ID]
			rt := &routerTel{
				id:        n.ID,
				forwarded: mirrorCounter(reg.Counter("router_forwarded_words_total", telemetry.L("router", n.Name))),
			}
			for o := 0; o < r.NumOutputs(); o++ {
				rt.outBusy = append(rt.outBusy, mirrorCounter(reg.Counter("router_output_busy_cycles_total",
					telemetry.L("router", n.Name), telemetry.L("port", strconv.Itoa(o)))))
			}
			h.routers = append(h.routers, rt)
		}
	}
	p.harvest = h
	p.Sim.AddProbe(func(cycle uint64) {
		if cycle%h.every != 0 {
			return
		}
		p.harvestTelemetry(cycle)
	})
}

// Telemetry returns the attached registry, or nil.
func (p *Platform) Telemetry() *telemetry.Registry { return p.tel }

// FlushTelemetry forces a harvest at the current cycle so an export sees
// up-to-date values regardless of the sampling interval. No-op without an
// attached registry.
func (p *Platform) FlushTelemetry() {
	if p.harvest == nil {
		return
	}
	p.harvestTelemetry(p.Sim.Cycle())
}

// countSpan adds one settled configuration transaction of kind op to the
// config_span* counters. Callers check that a registry is attached.
func (p *Platform) countSpan(op string, cycles uint64, words int) {
	st := p.harvest.spans[op]
	if st == nil {
		lbl := telemetry.L("op", op)
		st = &spanTel{
			count:  p.tel.Counter("config_spans_total", lbl),
			cycles: p.tel.Counter("config_span_cycles_total", lbl),
			words:  p.tel.Counter("config_span_words_total", lbl),
		}
		p.harvest.spans[op] = st
	}
	st.count.Inc()
	st.cycles.Add(cycles)
	st.words.Add(uint64(words))
}

func (p *Platform) harvestTelemetry(cycle uint64) {
	h := p.harvest
	h.cycle.Set(int64(cycle))
	cs := p.Alloc.CacheStats()
	h.cacheHits.store(cs.Hits)
	h.cacheMisses.store(cs.Misses)
	h.cacheInvalidations.store(cs.Invalidations)
	h.cacheTruncations.store(cs.Truncations)
	for _, nt := range h.nis {
		n := p.NIs[nt.id]
		inj, del := n.Stats()
		nt.injected.store(inj)
		nt.delivered.store(del)
		nt.dropped.store(n.Dropped())
		nt.rejected.store(n.Rejected())
		for set := n.FlaggedChannels(); set != 0; set &= set - 1 {
			ch := bits.TrailingZeros64(set)
			ct := nt.chans[ch]
			if ct == nil {
				if n.Flags(ch) == 0 {
					continue // never configured: keep the registry lean
				}
				lbls := []telemetry.Label{
					telemetry.L("ni", nt.name),
					telemetry.L("ch", strconv.Itoa(ch)),
				}
				ct = &chanTel{
					stall:  mirrorCounter(p.tel.Counter("ni_credit_stall_cycles_total", lbls...)),
					tx:     mirrorCounter(p.tel.Counter("ni_tx_words_total", lbls...)),
					rx:     mirrorCounter(p.tel.Counter("ni_rx_words_total", lbls...)),
					sendQ:  mirrorGauge(p.tel.Gauge("ni_send_queue_depth", lbls...)),
					recvQ:  mirrorGauge(p.tel.Gauge("ni_recv_queue_depth", lbls...)),
					credit: mirrorGauge(p.tel.Gauge("ni_credit", lbls...)),
				}
				nt.chans[ch] = ct
			}
			ct.stall.store(n.CreditStallCycles(ch))
			ct.tx.store(n.TxWords(ch))
			ct.rx.store(n.RxWords(ch))
			ct.sendQ.set(int64(n.SendQueueLen(ch)))
			ct.recvQ.set(int64(n.RecvLen(ch)))
			ct.credit.set(int64(n.Credit(ch)))
		}
	}
	for _, rt := range h.routers {
		r := p.Routers[rt.id]
		if r.Forwarded() == rt.forwarded.last {
			continue // the outputs' busy counts split Forwarded: none moved
		}
		rt.forwarded.store(r.Forwarded())
		for o := range rt.outBusy {
			rt.outBusy[o].store(r.OutputBusy(o))
		}
	}
}
