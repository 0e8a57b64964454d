// Package ni implements the daelite network interface (Fig. 5 of the
// paper). The NI owns the end-to-end connection machinery the routers are
// oblivious to: per-channel send and receive queues, the TDM slot table
// governing both packet departures and arrivals, credit-based end-to-end
// flow control carried on dedicated sideband wires alongside the data of
// the opposite-direction channel, connection state flags, and a
// configuration submodule that updates all of this through the broadcast
// configuration tree.
//
// A channel is the local endpoint of one direction of a connection: at the
// same local index an NI keeps the send queue and credit counter for its
// outgoing direction, plus the receive queue and delivered-word counter
// for the incoming direction. Credits for the incoming direction ride on
// the TX slots of the same local channel, and credits arriving on RX slots
// replenish the counter of the same local channel, which is exactly the
// pairing the paper describes ("credits for one direction are sent on
// separate bit-lines alongside data in the opposite direction").
package ni

import (
	"fmt"

	"daelite/internal/cfgproto"
	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/slots"
)

// Params holds the static hardware parameters of an NI.
type Params struct {
	// Wheel is the slot-table size.
	Wheel int
	// SlotWords is the slot length in words (2 in daelite).
	SlotWords int
	// NumChannels is the number of channel endpoints.
	NumChannels int
	// SendQueueDepth and RecvQueueDepth are per-channel queue
	// capacities in words. RecvQueueDepth bounds the credit counter and
	// must fit the 6-bit credit transfer (<= 63).
	SendQueueDepth int
	RecvQueueDepth int
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Wheel <= 0 || p.Wheel > slots.MaxTableSize {
		return fmt.Errorf("ni: wheel %d out of range", p.Wheel)
	}
	if p.SlotWords <= 0 {
		return fmt.Errorf("ni: slot words %d out of range", p.SlotWords)
	}
	if p.NumChannels <= 0 || p.NumChannels > cfgproto.MaxNIChannel+1 {
		return fmt.Errorf("ni: %d channels out of range 1..%d", p.NumChannels, cfgproto.MaxNIChannel+1)
	}
	if p.SendQueueDepth <= 0 || p.RecvQueueDepth <= 0 {
		return fmt.Errorf("ni: queue depths must be positive")
	}
	if p.RecvQueueDepth > phit.MaxCreditValue {
		return fmt.Errorf("ni: recv queue depth %d exceeds max credit value %d", p.RecvQueueDepth, phit.MaxCreditValue)
	}
	return nil
}

// Delivery is one word handed to the IP side, with its simulation
// provenance resolved from the flit's handle when the word arrived.
type Delivery struct {
	Word  phit.Word
	Tag   phit.Tag
	Cycle uint64 // cycle the word entered the receive queue
}

// channel is the per-channel state. IP-side mutations (Send, Recv) are
// buffered in pending fields and applied at Commit, so that the NI's Eval
// always observes last cycle's settled queues regardless of component
// evaluation order.
type channel struct {
	flags uint8

	sendQ    []queuedWord
	pendSend []queuedWord
	recvQ    []Delivery
	// recvCursor counts words the IP consumed this cycle; the head of
	// recvQ is trimmed at Commit.
	recvCursor int

	// credit is the source-side counter: free words at the remote
	// receive queue. Initialized by configuration at set-up.
	credit int
	// delivered is the destination-side counter: words handed to the IP
	// that have not yet been returned to the remote source as credits.
	delivered     int
	pendDelivered int

	// The 6-bit credit value crosses a slot 3 bits per word.
	txCreditLatch uint8 // value being transmitted this slot
	rxCreditAccum uint8 // bits collected so far this slot

	// busy records that the channel's next TX slot would act: it is
	// open and has a queued word, an unreturned delivery or a credit
	// value mid-slot. The NI counts busy channels in NI.work.
	busy bool

	seq uint64 // next sequence number for injected words

	// rxWords counts every word that entered the receive queue over the
	// channel's lifetime — the monotonic progress signal health
	// monitoring compares against the remote send queue's occupancy.
	rxWords uint64
	// txWords counts every word injected on the channel, the matching
	// source-side progress signal.
	txWords uint64
	// creditStall counts TX slots in which the channel had a queued word
	// but zero credit — the cycles end-to-end flow control held the
	// reserved bandwidth idle. A growing stall count with a healthy
	// network means the consumer is slow; with a dead reverse path it is
	// the first symptom of the failure.
	creditStall uint64
}

type queuedWord struct {
	word phit.Word
	tag  phit.Tag
}

// The inputs the NI's wires mark in sim.Activity.Changed.
const (
	linkInput = iota
	cfgInput
	respInput
)

// NI is one daelite network interface instance.
type NI struct {
	name   string
	id     int
	params Params

	inWire  *sim.Reg[phit.Flit] // from router (owned by router)
	inReg   *sim.Reg[phit.Flit] // first buffering stage
	outWire *sim.Reg[phit.Flit] // to router (owned by NI)

	table    *slots.NITable
	channels []*channel
	dec      *cfgproto.Decoder

	// Pending queue mutations applied at Commit so that IP-side reads
	// within the same cycle observe pre-edge state.
	pendingPush []pendingDelivery
	pendingPop  []int // channels whose send queue head was consumed

	// Configuration tree node state (NIs are leaves of the tree but the
	// plumbing is generic).
	cfgIn     *sim.Reg[phit.ConfigWord]
	cfgInReg  *sim.Reg[phit.ConfigWord]
	cfgOuts   []*sim.Reg[phit.ConfigWord]
	respIns   []*sim.Reg[phit.Response]
	respMerge *sim.Reg[phit.Response]
	respOut   *sim.Reg[phit.Response]

	// busShell accumulates RegBus writes for the adjacent bus's
	// configuration port (deserialized into wide words by the shell).
	busShell BusConfigPort
	busAccum uint32

	// Statistics.
	injected  uint64
	delivered uint64
	dropped   uint64
	rejected  uint64

	// sim stamps IP-side submissions (EvalCycle) and holds the
	// provenance of injected words; act is the kernel handle the NI
	// sleeps and wakes through. work counts busy channels, and host
	// records that an IP-side call left queue mutations for Commit.
	// outIdle records that outWire holds the idle flit (external
	// writers only ever overwrite a driven wire with idle), and cfgIdle
	// that the last Eval found the configuration node idle and left its
	// registers idle.
	sim     *sim.Simulator
	act     sim.Activity
	work    int
	host    bool
	outIdle bool
	cfgIdle bool
}

// pendingDelivery queues a word for a receive queue until Commit.
type pendingDelivery struct {
	ch int
	d  Delivery
}

// BusConfigPort receives deserialized configuration writes for the bus
// adjacent to this NI.
type BusConfigPort interface {
	ConfigWrite(value uint32)
}

// New creates an NI, registers it with s, and returns it.
func New(s *sim.Simulator, name string, id int, params Params) (*NI, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := &NI{
		name:      name,
		id:        id,
		params:    params,
		inReg:     sim.NewReg(s, phit.Idle()),
		outWire:   sim.NewReg(s, phit.Idle()),
		table:     slots.NewNITable(params.Wheel),
		cfgInReg:  sim.NewReg(s, phit.ConfigWord{}),
		respMerge: sim.NewReg(s, phit.Response{}),
		respOut:   sim.NewReg(s, phit.Response{}),
		sim:       s,
	}
	n.channels = make([]*channel, params.NumChannels)
	for i := range n.channels {
		n.channels[i] = &channel{}
	}
	n.dec = cfgproto.NewNIDecoder(id, params.Wheel, (*niSink)(n))
	n.act = s.Add(n)
	return n, nil
}

// Name implements sim.Component.
func (n *NI) Name() string { return n.name }

// ID returns the configuration element ID.
func (n *NI) ID() int { return n.id }

// ConnectInput attaches the wire arriving from the router.
func (n *NI) ConnectInput(wire *sim.Reg[phit.Flit]) {
	n.inWire = wire
	wire.Wakes(n.act, linkInput)
}

// OutputWire returns the wire this NI drives toward its router.
func (n *NI) OutputWire() *sim.Reg[phit.Flit] { return n.outWire }

// ConnectConfigIn attaches the forward configuration wire from the tree
// parent.
func (n *NI) ConnectConfigIn(wire *sim.Reg[phit.ConfigWord]) {
	n.cfgIn = wire
	wire.Wakes(n.act, cfgInput)
}

// AddConfigChild allocates a forward wire toward a tree child.
func (n *NI) AddConfigChild(s *sim.Simulator) *sim.Reg[phit.ConfigWord] {
	w := sim.NewReg(s, phit.ConfigWord{})
	n.cfgOuts = append(n.cfgOuts, w)
	return w
}

// AddResponseChild attaches a child's reverse wire.
func (n *NI) AddResponseChild(wire *sim.Reg[phit.Response]) {
	n.respIns = append(n.respIns, wire)
	wire.Wakes(n.act, respInput)
}

// ResponseWire returns the reverse wire toward the tree parent.
func (n *NI) ResponseWire() *sim.Reg[phit.Response] { return n.respOut }

// SetBusConfigPort attaches the adjacent bus's configuration port.
func (n *NI) SetBusConfigPort(p BusConfigPort) { n.busShell = p }

// Table exposes the NI slot table for tests and probes.
func (n *NI) Table() *slots.NITable { return n.table }

// --- IP-side API (called from other components' Eval or from the host
// between steps; effects are two-phase safe: pushes are visible next
// cycle, reads see settled state). A call that leaves a queue mutation
// for Commit wakes the NI.

// CanSend reports whether channel ch can accept another word from the IP.
func (n *NI) CanSend(ch int) bool {
	c := n.channels[ch]
	return len(c.sendQ)+len(c.pendSend) < n.params.SendQueueDepth
}

// Send enqueues one word for transmission on channel ch. It returns false
// if the queue is full or the channel is not open. The word becomes
// eligible for injection on the next cycle (two-phase safety).
func (n *NI) Send(ch int, w phit.Word) bool {
	c := n.channels[ch]
	if c.flags&cfgproto.FlagOpen == 0 || len(c.sendQ)+len(c.pendSend) >= n.params.SendQueueDepth {
		n.rejected++
		return false
	}
	tag := phit.Tag{Channel: n.id<<8 | ch, Seq: c.seq, SubmitCycle: n.sim.EvalCycle()}
	c.seq++
	c.pendSend = append(c.pendSend, queuedWord{word: w, tag: tag})
	n.hostCall()
	return true
}

// RecvLen returns the number of words available to the IP on channel ch.
func (n *NI) RecvLen(ch int) int {
	c := n.channels[ch]
	return len(c.recvQ) - c.recvCursor
}

// Recv pops one delivered word from channel ch, returning ok=false when
// the queue is empty. Popping frees buffer space and therefore schedules a
// credit to be returned to the remote source.
func (n *NI) Recv(ch int) (Delivery, bool) {
	c := n.channels[ch]
	if c.recvCursor >= len(c.recvQ) {
		return Delivery{}, false
	}
	d := c.recvQ[c.recvCursor]
	c.recvCursor++
	c.pendDelivered++
	n.hostCall()
	return d, true
}

// hostCall notes an IP-side queue mutation: Commit must apply it this
// cycle even if the NI was asleep.
func (n *NI) hostCall() {
	n.host = true
	n.act.Wake()
}

// SendQueueLen returns the occupancy of channel ch's send queue.
func (n *NI) SendQueueLen(ch int) int {
	c := n.channels[ch]
	return len(c.sendQ) + len(c.pendSend)
}

// Credit returns the source-side credit counter of channel ch.
func (n *NI) Credit(ch int) int { return n.channels[ch].credit }

// RxWords returns the lifetime count of words received into channel ch's
// queue (delivered to the IP or still waiting). Health monitors use it as
// the destination-side progress signal.
func (n *NI) RxWords(ch int) uint64 { return n.channels[ch].rxWords }

// TxWords returns the lifetime count of words injected on channel ch.
func (n *NI) TxWords(ch int) uint64 { return n.channels[ch].txWords }

// DeliveredCredits returns the destination-side unreturned-delivery
// counter of channel ch: words handed to the IP whose credits have not
// yet been latched for return to the remote source. Together with the
// source credit counter, the words in flight and the receive queue it
// completes the end-to-end credit conservation law that the conformance
// checker verifies online.
func (n *NI) DeliveredCredits(ch int) int { return n.channels[ch].delivered }

// CreditStallCycles returns how many TX slots channel ch spent with a
// queued word but no credit — reserved bandwidth held idle by end-to-end
// flow control.
func (n *NI) CreditStallCycles(ch int) uint64 { return n.channels[ch].creditStall }

// Flags returns the state flags of channel ch.
func (n *NI) Flags(ch int) uint8 { return n.channels[ch].flags }

// Rejected returns the number of Send calls refused because the channel
// was not open or its send queue was full — the IP-side injection
// back-pressure counter.
func (n *NI) Rejected() uint64 { return n.rejected }

// Stats returns the total words injected into and delivered from the
// network by this NI.
func (n *NI) Stats() (injected, delivered uint64) { return n.injected, n.delivered }

// Dropped returns words discarded at full receive queues. Zero for
// correctly flow-controlled channels; non-zero only when a multicast
// destination fails to consume at line rate (the failure mode the paper
// warns about).
func (n *NI) Dropped() uint64 { return n.dropped }

// Eval implements sim.Component. The NI goes to sleep when no channel
// is busy, no IP-side call is pending, it drove the idle flit, its
// decoder is between packets and every register it read this cycle was
// idle: its next Eval+Commit would change nothing, even with channels
// open, because an open channel with no word and no credit to return
// drives nothing. A change on its input, configuration or response
// wires, or an IP-side Send or Recv, wakes it.
func (n *NI) Eval(cycle uint64) {
	changed := n.act.Changed()
	// Stage 1: latch the input wire if it changed (unchanged, it still
	// holds what the register holds); in is the value latched last
	// cycle, which the receive path consumes.
	in := n.inReg.Get()
	inFlit := in
	if changed&(1<<linkInput) != 0 {
		inFlit = n.inWire.Get()
		n.inReg.Set(inFlit)
	}

	// The slot/word position of the value our registers present next
	// cycle.
	c1 := cycle + 1
	slot := slots.SlotOfCycle(c1, n.params.SlotWords, n.params.Wheel)
	wordIdx := int(c1 % uint64(n.params.SlotWords))
	entry := n.table.Entry(slot)

	// Transmit path.
	out := phit.Idle()
	if entry.TX != slots.NoChannel && entry.TX < len(n.channels) {
		ch := n.channels[entry.TX]
		if ch.flags&cfgproto.FlagOpen != 0 {
			// Credits for the opposite direction of this
			// connection ride in the slots of the channel, 3 bits
			// per word, high bits first: a slot of S words
			// transfers 3*S credit bits (6 with daelite's 2-word
			// slots, matching the paper's 6-bit counter). The value
			// is latched at word 0 and a slot carrying zero drives
			// no credit at all; a non-zero value drives every word
			// of the slot, zero chunks included, because the
			// receiver shifts in one chunk per valid word.
			if wordIdx == 0 {
				max := 1<<(phit.CreditWires*n.params.SlotWords) - 1
				if max > phit.MaxCreditValue {
					max = phit.MaxCreditValue
				}
				v := ch.delivered
				if v > max {
					v = max
				}
				ch.txCreditLatch = uint8(v)
				ch.delivered -= v
			}
			if ch.txCreditLatch != 0 {
				shift := uint(phit.CreditWires * (n.params.SlotWords - 1 - wordIdx))
				out.Credit = (ch.txCreditLatch >> shift) & (1<<phit.CreditWires - 1)
				out.CreditValid = true
				if wordIdx == n.params.SlotWords-1 {
					ch.txCreditLatch = 0
				}
			}

			// Payload: send if a word is queued and, unless
			// multicast, a credit is available.
			if len(ch.sendQ) > 0 && (ch.flags&cfgproto.FlagMulticast != 0 || ch.credit > 0) {
				qw := ch.sendQ[0]
				n.pendingPop = append(n.pendingPop, entry.TX)
				if ch.flags&cfgproto.FlagMulticast == 0 {
					ch.credit--
				}
				out.Valid = true
				out.Data = qw.word
				out.Ref = n.sim.Stamp(n.act, qw.tag)
				n.injected++
				ch.txWords++
			} else if len(ch.sendQ) > 0 {
				ch.creditStall++
			}
			n.track(ch)
		}
	}
	if !out.IsIdle() || !n.outIdle {
		n.outWire.Set(out)
		n.outIdle = out.IsIdle()
	}

	// Receive path: the second buffering stage accepts the input
	// register's value during the slot after it appeared on the link.
	if entry.RX != slots.NoChannel && entry.RX < len(n.channels) {
		ch := n.channels[entry.RX]
		if in.CreditValid {
			ch.rxCreditAccum = ch.rxCreditAccum<<phit.CreditWires | in.Credit&(1<<phit.CreditWires-1)
			if wordIdx == n.params.SlotWords-1 {
				ch.credit += int(ch.rxCreditAccum)
				ch.rxCreditAccum = 0
			}
		}
		if in.Valid {
			if len(ch.recvQ)+n.pendingFor(entry.RX) < n.params.RecvQueueDepth {
				n.pendingPush = append(n.pendingPush, pendingDelivery{
					ch: entry.RX,
					d:  Delivery{Word: in.Data, Tag: n.sim.Provenance(in.Ref), Cycle: c1},
				})
				n.delivered++
				ch.rxWords++
			} else {
				n.dropped++
			}
			// A full queue drops the word; with correct credit
			// configuration this cannot happen for flow-controlled
			// channels, and tests assert it does not.
		}
	}

	// Configuration tree node. An idle node whose inputs did not change
	// would only rewrite idle values.
	if !n.cfgIdle || changed&(1<<cfgInput|1<<respInput) != 0 {
		var cfgWord phit.ConfigWord
		if n.cfgIn != nil {
			cfgWord = n.cfgIn.Get()
		}
		n.cfgInReg.Set(cfgWord)
		stage := n.cfgInReg.Get()
		for _, outw := range n.cfgOuts {
			outw.Set(stage)
		}
		merged := n.dec.Feed(stage)
		for _, inw := range n.respIns {
			merged = phit.Merge(merged, inw.Get())
		}
		n.respMerge.Set(merged)
		resp := n.respMerge.Get()
		n.respOut.Set(resp)
		n.cfgIdle = cfgWord == (phit.ConfigWord{}) && stage == (phit.ConfigWord{}) &&
			merged == (phit.Response{}) && resp == (phit.Response{}) && !n.dec.Busy()
	}

	if n.work == 0 && !n.host && n.outIdle && inFlit.IsIdle() && in.IsIdle() && n.cfgIdle {
		n.act.Sleep()
	}
}

// track re-derives c.busy after a change to c. A partial rxCreditAccum
// does not count: it moves only when a credit word arrives, which wakes
// the NI.
func (n *NI) track(c *channel) {
	busy := c.flags&cfgproto.FlagOpen != 0 && (len(c.sendQ) > 0 || c.delivered != 0 || c.txCreditLatch != 0)
	if busy != c.busy {
		c.busy = busy
		if busy {
			n.work++
		} else {
			n.work--
		}
	}
}

func (n *NI) pendingFor(ch int) int {
	cnt := 0
	for _, p := range n.pendingPush {
		if p.ch == ch {
			cnt++
		}
	}
	return cnt
}

// Commit implements sim.Component: apply queue mutations decided in Eval
// (network-side pops and pushes) and by the IP-side API during other
// components' Eval (pending sends, consumed deliveries).
func (n *NI) Commit() {
	for _, ch := range n.pendingPop {
		c := n.channels[ch]
		if len(c.sendQ) > 0 {
			c.sendQ = c.sendQ[1:]
		}
		n.track(c)
	}
	n.pendingPop = n.pendingPop[:0]
	for _, p := range n.pendingPush {
		c := n.channels[p.ch]
		c.recvQ = append(c.recvQ, p.d)
	}
	n.pendingPush = n.pendingPush[:0]
	if !n.host {
		return
	}
	n.host = false
	for _, c := range n.channels {
		if len(c.pendSend) > 0 {
			c.sendQ = append(c.sendQ, c.pendSend...)
			c.pendSend = c.pendSend[:0]
		}
		if c.recvCursor > 0 {
			c.recvQ = c.recvQ[c.recvCursor:]
			c.recvCursor = 0
		}
		if c.pendDelivered > 0 {
			c.delivered += c.pendDelivered
			c.pendDelivered = 0
		}
		n.track(c)
	}
}

// niSink adapts the NI to cfgproto.Sink.
type niSink NI

func (ns *niSink) ApplySlots(mask slots.Mask, spec cfgproto.PortSpec) {
	n := (*NI)(ns)
	if !spec.ForNI || spec.Channel >= len(n.channels) {
		return
	}
	channel := spec.Channel
	if !spec.Enable {
		channel = slots.NoChannel
	}
	if spec.Send {
		_ = n.table.SetSend(mask, channel)
	} else {
		_ = n.table.SetReceive(mask, channel)
	}
}

func (ns *niSink) WriteReg(reg, value uint8) {
	n := (*NI)(ns)
	ch := cfgproto.RegChannel(reg)
	switch cfgproto.RegClass(reg) {
	case cfgproto.RegFlags:
		if ch < len(n.channels) {
			n.channels[ch].flags = value
			n.track(n.channels[ch])
		}
	case cfgproto.RegCredit:
		if ch < len(n.channels) {
			n.channels[ch].credit = int(value)
		}
	case cfgproto.RegDelivered:
		if ch < len(n.channels) {
			n.channels[ch].delivered = int(value)
			n.track(n.channels[ch])
		}
	case cfgproto.RegBus:
		if n.busShell != nil {
			n.busDeser(ch, value)
		}
	}
}

// busDeser deserializes successive 7-bit RegBus writes into 28-bit wide
// words for the adjacent bus configuration port: channel field 0..3 gives
// the symbol position, position 3 flushes.
func (n *NI) busDeser(pos int, value uint8) {
	n.busAccum = n.busAccum<<7 | uint32(value&0x7F)
	if pos == 3 {
		n.busShell.ConfigWrite(n.busAccum)
		n.busAccum = 0
	}
}

func (ns *niSink) ReadReg(reg uint8) (uint8, bool) {
	n := (*NI)(ns)
	ch := cfgproto.RegChannel(reg)
	if ch >= len(n.channels) {
		return 0, false
	}
	switch cfgproto.RegClass(reg) {
	case cfgproto.RegFlags:
		return n.channels[ch].flags & 0x7F, true
	case cfgproto.RegCredit:
		v := n.channels[ch].credit
		if v > 0x7F {
			v = 0x7F
		}
		return uint8(v), true
	case cfgproto.RegDelivered:
		v := n.channels[ch].delivered
		if v > 0x7F {
			v = 0x7F
		}
		return uint8(v), true
	default:
		return 0, false
	}
}
