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

// Source injects words into one NI channel. Between injections it
// sleeps in the simulator's ordered tail until the next cycle it injects
// in (see wait).
type Source struct {
	name    string
	ni      *ni.NI
	channel int
	act     sim.Activity
	due     uint64 // the next cycle Eval acts in
	armed   bool   // Bursty: the draw for cycle due already started a burst

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
	src.act = s.AddOrdered(src)
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

// Detach permanently idles the source: it never injects again and
// sleeps for good. Phase-structured workloads detach a source before its
// NI channel is freed and reused, so a stale generator cannot inject
// into a successor connection's channel.
func (s *Source) Detach() {
	s.detached = true
	s.act.Sleep()
}

// Eval implements sim.Component.
func (s *Source) Eval(cycle uint64) {
	if cycle < s.due {
		return // evaluated asleep, under the kernel's audit
	}
	if s.detached || s.Done() {
		s.act.Sleep()
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
		} else if s.armed || s.rng.Float64() < s.startP() {
			s.armed = false
			s.burstLeft = s.burstLen - 1
			want = 1
		}
	}
	for range want {
		if s.Done() {
			break
		}
		if !s.ni.Send(s.channel, s.payload(s.sent)) {
			s.rejected++
			break
		}
		s.sent++
	}
	if s.Done() {
		s.act.Sleep()
		return
	}
	s.wait(cycle)
}

// startP is a Bursty source's chance to start a burst in a cycle: each
// burst carries burstLen words, so the average rate holds.
func (s *Source) startP() float64 { return s.rate / float64(s.burstLen) }

// lookahead bounds the cycles one wait steps through, so a vanishing
// rate costs one wake per lookahead cycles rather than an endless loop.
const lookahead = 1 << 12

// wait sleeps the source until the next cycle it injects in. It steps
// the injection process through the cycles after cycle that inject
// nothing, exactly as one Eval each would — the same accum += rate
// steps for CBR, the same draws on the source's own RNG for Bursty — so
// the run is identical to evaluating every cycle.
func (s *Source) wait(cycle uint64) {
	next := cycle + 1
	switch s.pattern {
	case CBR:
		for i := 0; i < lookahead && s.accum+s.rate < 1; i++ {
			s.accum += s.rate
			next++
		}
	case Bursty:
		if s.burstLeft > 0 {
			break
		}
		for i := 0; i < lookahead; i++ {
			if s.rng.Float64() < s.startP() {
				s.armed = true
				break
			}
			next++
		}
	}
	s.due = next
	if next > cycle+1 {
		s.act.SleepUntil(next)
	}
}

// Sink drains one NI channel and records latencies. It sleeps in the
// simulator's ordered tail while the channel's receive queue is empty;
// the NI wakes it when a word arrives.
type Sink struct {
	name    string
	ni      *ni.NI
	channel int
	act     sim.Activity

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
	k.act = s.AddOrdered(k)
	n.WatchRecv(channel, k.act)
	k.sleepIfDrained()
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
// sleeps for good. A phase-structured workload detaches its sinks before
// tearing the phase's connections down, so a stale sink cannot steal
// deliveries once the NI channel is reused by a later connection.
func (k *Sink) Detach() {
	k.detached = true
	k.ni.UnwatchRecv(k.channel, k.act)
	k.act.Sleep()
}

// sleepIfDrained sleeps the sink while its channel has nothing to drain.
func (k *Sink) sleepIfDrained() {
	if k.ni.RecvLen(k.channel) == 0 {
		k.act.Sleep()
	}
}

// Eval implements sim.Component.
func (k *Sink) Eval(cycle uint64) {
	if k.detached {
		k.act.Sleep()
		return
	}
	for n := 0; k.MaxPerCycle == 0 || n < k.MaxPerCycle; n++ {
		d, ok := k.ni.Recv(k.channel)
		if !ok {
			break
		}
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
	k.sleepIfDrained()
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
// through the cycle model. It sleeps until its next event's cycle.
type Replayer struct {
	name    string
	ni      *ni.NI
	channel int
	act     sim.Activity
	events  []Event
	next    int
	sent    uint64
	late    uint64 // words that could not be offered at their timestamp
}

// NewReplayer attaches a trace replayer to an NI channel. Events must be
// sorted by cycle.
func NewReplayer(s *sim.Simulator, name string, n *ni.NI, channel int, events []Event) *Replayer {
	r := &Replayer{name: name, ni: n, channel: channel, events: events}
	r.act = s.AddOrdered(r)
	r.wait(s.Cycle())
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
	r.wait(cycle + 1)
}

// wait sleeps the replayer, whose next Eval would be at cycle from, for
// good once the trace is exhausted, else until its next event's cycle
// if that lies later; an overdue event keeps it awake.
func (r *Replayer) wait(from uint64) {
	if r.Done() {
		r.act.Sleep()
	} else if at := r.events[r.next].Cycle; at > from {
		r.act.SleepUntil(at)
	}
}

// Recorder captures deliveries on an NI channel as an event trace
// (timestamped by delivery cycle), so one simulation's output can drive
// another's input. Like a Sink, it sleeps while there is nothing to
// record and the NI wakes it.
type Recorder struct {
	name    string
	ni      *ni.NI
	channel int
	act     sim.Activity
	events  []Event
}

// NewRecorder attaches a delivery recorder to an NI channel.
func NewRecorder(s *sim.Simulator, name string, n *ni.NI, channel int) *Recorder {
	r := &Recorder{name: name, ni: n, channel: channel}
	r.act = s.AddOrdered(r)
	n.WatchRecv(channel, r.act)
	if n.RecvLen(channel) == 0 {
		r.act.Sleep()
	}
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
			r.act.Sleep()
			return
		}
		r.events = append(r.events, Event{Cycle: d.Cycle, Word: d.Word})
	}
}
