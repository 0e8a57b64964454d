// Package traffic provides workload generators and measurement probes for
// daelite platforms: constant-bit-rate and bursty sources modelling the
// paper's motivating traffic classes (high-throughput video streams,
// latency-sensitive cache-miss traffic), sinks with latency accounting,
// and aggregate statistics used by the benchmark harness.
package traffic

import (
	"fmt"
	"math"

	"daelite/internal/ni"
	"daelite/internal/phit"
	"daelite/internal/sim"
)

// Stats aggregates per-word delivery measurements.
type Stats struct {
	Count  uint64
	SumLat float64
	MinLat uint64
	MaxLat uint64
	// hist counts the observations of each latency in cycles; it grows
	// only when a new maximum arrives.
	hist []uint64
}

// Observe records one delivery latency.
func (s *Stats) Observe(lat uint64) {
	if s.Count == 0 || lat < s.MinLat {
		s.MinLat = lat
	}
	if lat > s.MaxLat {
		s.MaxLat = lat
	}
	s.Count++
	s.SumLat += float64(lat)
	if lat >= uint64(len(s.hist)) {
		s.hist = append(s.hist, make([]uint64, int(lat)+1-len(s.hist))...)
	}
	s.hist[lat]++
}

// Mean returns the mean latency in cycles.
func (s *Stats) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.SumLat / float64(s.Count)
}

// Percentile returns the p-th percentile latency (0 < p <= 100) over all
// observations, by nearest rank.
func (s *Stats) Percentile(p float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(max(1, math.Ceil(p/100*float64(s.Count))))
	var seen uint64
	for lat, n := range s.hist {
		if seen += n; seen >= rank {
			return uint64(lat)
		}
	}
	return s.MaxLat
}

// String renders a summary line.
func (s *Stats) String() string {
	if s.Count == 0 {
		return "no deliveries"
	}
	return fmt.Sprintf("n=%d lat(min/mean/p99/max)=%d/%.1f/%d/%d cycles",
		s.Count, s.MinLat, s.Mean(), s.Percentile(99), s.MaxLat)
}

// Pattern shapes a source's injection process.
type Pattern int

const (
	// CBR injects at a constant rate.
	CBR Pattern = iota
	// Bursty alternates idle gaps with back-to-back bursts at the same
	// average rate.
	Bursty
)

// Source injects words into one NI channel.
type Source struct {
	name    string
	ni      *ni.NI
	channel int

	pattern   Pattern
	rate      float64 // average words per cycle
	burstLen  int
	limit     uint64 // 0: unlimited
	rng       *sim.RNG
	accum     float64
	burstLeft int
	sent      uint64
	rejected  uint64
	detached  bool
	payload   func(seq uint64) phit.Word
}

// SourceConfig parameterizes a Source.
type SourceConfig struct {
	Pattern  Pattern
	Rate     float64 // average words/cycle, 0 < Rate <= 1
	BurstLen int     // words per burst (Bursty); default 8
	Limit    uint64  // stop after this many words; 0 = unlimited
	Seed     uint64
	// Payload generates word contents; nil uses the sequence number.
	Payload func(seq uint64) phit.Word
}

// NewSource attaches a source to an NI channel.
func NewSource(s *sim.Simulator, name string, n *ni.NI, channel int, cfg SourceConfig) *Source {
	if cfg.BurstLen <= 0 {
		cfg.BurstLen = 8
	}
	if cfg.Payload == nil {
		cfg.Payload = func(seq uint64) phit.Word { return phit.Word(seq) }
	}
	src := &Source{
		name:     name,
		ni:       n,
		channel:  channel,
		pattern:  cfg.Pattern,
		rate:     cfg.Rate,
		burstLen: cfg.BurstLen,
		limit:    cfg.Limit,
		rng:      sim.NewRNG(cfg.Seed),
		payload:  cfg.Payload,
	}
	s.AddOrdered(src)
	return src
}

// Name implements sim.Component.
func (s *Source) Name() string { return s.name }

// Sent returns the number of words accepted by the NI.
func (s *Source) Sent() uint64 { return s.sent }

// Rejected returns the number of send attempts refused by a full queue.
func (s *Source) Rejected() uint64 { return s.rejected }

// Done reports whether a limited source has sent everything.
func (s *Source) Done() bool { return s.limit > 0 && s.sent >= s.limit }

// Detach permanently idles the source: it never injects again and stays
// quiescent. Phase-structured workloads detach a source before its NI
// channel is freed and reused, so a stale generator cannot inject into a
// successor connection's channel.
func (s *Source) Detach() { s.detached = true }

// Eval implements sim.Component.
func (s *Source) Eval(cycle uint64) {
	if s.detached || s.Done() {
		return
	}
	want := 0
	switch s.pattern {
	case CBR:
		s.accum += s.rate
		for s.accum >= 1 {
			s.accum--
			want++
		}
	case Bursty:
		if s.burstLeft > 0 {
			want = 1
			s.burstLeft--
		} else {
			// Start a burst with probability rate/burstLen per
			// cycle so the average rate holds (each burst carries
			// burstLen words).
			if s.rng.Float64() < s.rate/float64(s.burstLen) {
				s.burstLeft = s.burstLen - 1
				want = 1
			}
		}
	}
	for i := 0; i < want; i++ {
		if s.limit > 0 && s.sent >= s.limit {
			return
		}
		if s.ni.Send(s.channel, s.payload(s.sent)) {
			s.sent++
		} else {
			s.rejected++
			return
		}
	}
}

// Commit implements sim.Component.
func (s *Source) Commit() {}

// Quiescence implements sim.Quiescer: a limited source that has sent
// everything never injects again (Eval early-returns on Done), so it is
// quiet forever; an unlimited or unfinished source pins cycle-accurate
// execution.
func (s *Source) Quiescence(now uint64) sim.Quiescence {
	return sim.Quiescence{Quiet: s.detached || s.Done()}
}

// Sink drains one NI channel and records latencies.
type Sink struct {
	name    string
	ni      *ni.NI
	channel int

	// MaxPerCycle bounds the drain rate (0: unlimited), modelling a
	// destination IP with finite consumption bandwidth.
	MaxPerCycle int

	stats    Stats // network traversal latency (injection to delivery)
	total    Stats // end-to-end latency (IP submission to delivery)
	received uint64
	lastSeq  map[int]uint64
	ooo      uint64 // out-of-order deliveries (per source channel)
	detached bool
	verify   func(d ni.Delivery) error
	verr     error
}

// NewSink attaches a sink to an NI channel.
func NewSink(s *sim.Simulator, name string, n *ni.NI, channel int) *Sink {
	k := &Sink{name: name, ni: n, channel: channel, lastSeq: make(map[int]uint64)}
	s.AddOrdered(k)
	return k
}

// Name implements sim.Component.
func (k *Sink) Name() string { return k.name }

// Stats returns the network-traversal latency measurements (injection on
// the source link to delivery).
func (k *Sink) Stats() *Stats { return &k.stats }

// TotalStats returns the end-to-end latency measurements (IP submission
// to delivery), including queueing and scheduling latency at the source.
func (k *Sink) TotalStats() *Stats { return &k.total }

// Received returns the delivered word count.
func (k *Sink) Received() uint64 { return k.received }

// OutOfOrder returns the count of sequence regressions per source channel
// (zero for single-path connections; multipath may reorder).
func (k *Sink) OutOfOrder() uint64 { return k.ooo }

// SetVerify installs a per-delivery check; the first failure is retained.
func (k *Sink) SetVerify(f func(d ni.Delivery) error) { k.verify = f }

// VerifyErr returns the first verification failure, if any.
func (k *Sink) VerifyErr() error { return k.verr }

// Detach permanently idles the sink: it stops draining the channel and
// stays quiescent. A phase-structured workload detaches its sinks before
// tearing the phase's connections down, so a stale sink cannot steal
// deliveries once the NI channel is reused by a later connection.
func (k *Sink) Detach() { k.detached = true }

// Eval implements sim.Component.
func (k *Sink) Eval(cycle uint64) {
	if k.detached {
		return
	}
	n := 0
	for {
		if k.MaxPerCycle > 0 && n >= k.MaxPerCycle {
			return
		}
		d, ok := k.ni.Recv(k.channel)
		if !ok {
			return
		}
		n++
		k.received++
		k.stats.Observe(d.Cycle - d.Tag.InjectCycle)
		k.total.Observe(d.Cycle - d.Tag.SubmitCycle)
		if last, seen := k.lastSeq[d.Tag.Channel]; seen && d.Tag.Seq < last {
			k.ooo++
		}
		k.lastSeq[d.Tag.Channel] = d.Tag.Seq
		if k.verify != nil && k.verr == nil {
			k.verr = k.verify(d)
		}
	}
}

// Commit implements sim.Component.
func (k *Sink) Commit() {}

// Quiescence implements sim.Quiescer: quiet while the drained channel's
// receive queue is empty — Eval would observe nothing and record
// nothing.
func (k *Sink) Quiescence(now uint64) sim.Quiescence {
	return sim.Quiescence{Quiet: k.detached || k.ni.RecvLen(k.channel) == 0}
}

// Event is one timed injection for trace playback.
type Event struct {
	// Cycle is the earliest cycle the word may be offered to the NI.
	Cycle uint64
	// Word is the payload.
	Word phit.Word
}

// Replayer injects a recorded event trace into an NI channel: each word is
// offered at its timestamp (or as soon afterwards as the send queue
// accepts it), preserving order. Use it to reproduce application traces
// through the cycle model.
type Replayer struct {
	name    string
	ni      *ni.NI
	channel int
	events  []Event
	next    int
	sent    uint64
	late    uint64 // words that could not be offered at their timestamp
}

// NewReplayer attaches a trace replayer to an NI channel. Events must be
// sorted by cycle.
func NewReplayer(s *sim.Simulator, name string, n *ni.NI, channel int, events []Event) *Replayer {
	r := &Replayer{name: name, ni: n, channel: channel, events: events}
	s.AddOrdered(r)
	return r
}

// Name implements sim.Component.
func (r *Replayer) Name() string { return r.name }

// Done reports whether the whole trace has been injected.
func (r *Replayer) Done() bool { return r.next >= len(r.events) }

// Sent returns the number of injected words.
func (r *Replayer) Sent() uint64 { return r.sent }

// Late returns how many words missed their timestamp because the queue
// was full (they are still sent, later).
func (r *Replayer) Late() uint64 { return r.late }

// Eval implements sim.Component.
func (r *Replayer) Eval(cycle uint64) {
	for r.next < len(r.events) && r.events[r.next].Cycle <= cycle {
		if !r.ni.Send(r.channel, r.events[r.next].Word) {
			r.late++
			return // retry next cycle, order preserved
		}
		r.sent++
		r.next++
	}
}

// Commit implements sim.Component.
func (r *Replayer) Commit() {}

// Quiescence implements sim.Quiescer: an exhausted trace is quiet
// forever; otherwise the replayer is quiet exactly until its next
// event's cycle (an overdue event — a word still waiting on a full
// queue — reports busy, since Until would not lie in the future).
func (r *Replayer) Quiescence(now uint64) sim.Quiescence {
	if r.Done() {
		return sim.Quiescence{Quiet: true}
	}
	if next := r.events[r.next].Cycle; next > now {
		return sim.Quiescence{Quiet: true, Until: next}
	}
	return sim.Quiescence{}
}

// Recorder captures deliveries on an NI channel as an event trace
// (timestamped by delivery cycle), so one simulation's output can drive
// another's input.
type Recorder struct {
	name    string
	ni      *ni.NI
	channel int
	events  []Event
}

// NewRecorder attaches a delivery recorder to an NI channel.
func NewRecorder(s *sim.Simulator, name string, n *ni.NI, channel int) *Recorder {
	r := &Recorder{name: name, ni: n, channel: channel}
	s.AddOrdered(r)
	return r
}

// Name implements sim.Component.
func (r *Recorder) Name() string { return r.name }

// Events returns the captured trace.
func (r *Recorder) Events() []Event {
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Eval implements sim.Component.
func (r *Recorder) Eval(cycle uint64) {
	for {
		d, ok := r.ni.Recv(r.channel)
		if !ok {
			return
		}
		r.events = append(r.events, Event{Cycle: d.Cycle, Word: d.Word})
	}
}

// Commit implements sim.Component.
func (r *Recorder) Commit() {}

// Quiescence implements sim.Quiescer: quiet while there is nothing to
// record on the watched channel.
func (r *Recorder) Quiescence(now uint64) sim.Quiescence {
	return sim.Quiescence{Quiet: r.ni.RecvLen(r.channel) == 0}
}
