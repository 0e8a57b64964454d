// Package ni implements the daelite network interface (Fig. 5 of the
// paper). The NI owns the end-to-end connection machinery the routers are
// oblivious to: per-channel send and receive queues, the TDM slot table
// governing both packet departures and arrivals, credit-based end-to-end
// flow control carried on dedicated sideband wires alongside the data of
// the opposite-direction channel, connection state flags, and a
// configuration submodule that updates all of this through the broadcast
// configuration tree (decoded once per region by configtree, which
// applies the NI's effects through its cfgproto.Sink).
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
	"math/bits"
	"slices"

	"daelite/internal/cfgproto"
	"daelite/internal/configtree"
	"daelite/internal/fifo"
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
// staged in the queues and applied at Commit, so that the NI's Eval
// always observes last cycle's settled queues regardless of component
// evaluation order.
type channel struct {
	flags uint8

	// The hardware FIFOs, at SendQueueDepth and RecvQueueDepth words.
	// Send stages past sendQ's tail and Eval pops its head at Commit;
	// the receive path stages past recvQ's tail and Recv takes its head.
	sendQ fifo.Ring[queuedWord]
	recvQ fifo.Ring[Delivery]

	// consumers are the IP-side readers of recvQ that sleep while it is
	// empty (see WatchRecv).
	consumers []sim.Activity

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

// NI is one daelite network interface instance.
type NI struct {
	name   string
	id     int
	params Params

	inWire  *sim.Reg[phit.Flit] // from router (owned by router)
	inReg   phit.Flit           // first buffering stage, read only here
	outWire *sim.Reg[phit.Flit] // to router (owned by NI)

	table    *slots.NITable
	channels []*channel

	// The channels whose send-queue head Eval consumed and whose receive
	// queue it staged a word in (nil: none), for Commit to apply, so
	// that IP-side reads within the same cycle observe pre-edge state.
	// Eval asks for the Commit when it sets either.
	popped, pushed *channel

	// cfg is the NI's place on its region's configuration tree.
	cfg *configtree.Node

	// busShell accumulates RegBus writes for the adjacent bus's
	// configuration port (deserialized into wide words by the shell).
	busShell BusConfigPort
	busAccum uint32

	// flagged has bit ch set once channel ch's flags were written
	// non-zero (see FlaggedChannels).
	flagged uint64

	// Statistics.
	injected  uint64
	delivered uint64
	dropped   uint64
	rejected  uint64

	// sim stamps IP-side submissions (EvalCycle) and holds the
	// provenance of injected words; act is the kernel handle the NI
	// sleeps, wakes and asks for its Commit through. work counts busy
	// channels, and host has bit ch set when an IP-side call left queue
	// mutations on channel ch for Commit.
	// outIdle records that outWire holds the idle flit (external
	// writers only ever overwrite a driven wire with idle).
	sim     *sim.Simulator
	act     sim.Activity
	work    int
	host    uint64
	outIdle bool
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
		name:    name,
		id:      id,
		params:  params,
		outWire: sim.NewReg(s, phit.Idle()),
		table:   slots.NewNITable(params.Wheel),
		sim:     s,
	}
	n.channels = make([]*channel, params.NumChannels)
	for i := range n.channels {
		n.channels[i] = &channel{
			sendQ: fifo.New[queuedWord](params.SendQueueDepth),
			recvQ: fifo.New[Delivery](params.RecvQueueDepth),
		}
	}
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
	wire.Wakes(n.act, 0) // the NI's only input in sim.Activity.Changed
}

// OutputWire returns the wire this NI drives toward its router.
func (n *NI) OutputWire() *sim.Reg[phit.Flit] { return n.outWire }

// ConnectConfigIn attaches the NI's configuration submodule to the tree
// below at — the module's root (Module.ForwardWire) or the NI's tree
// parent — and returns its place there, where its tree children attach
// in turn.
func (n *NI) ConnectConfigIn(at *configtree.Node) *configtree.Node {
	n.cfg = at.Attach(n.id, n.params.Wheel, true, (*niSink)(n))
	return n.cfg
}

// ResponseWire returns the NI's place on the tree, whose reverse path a
// module connects with ConnectResponse when the NI is the root.
func (n *NI) ResponseWire() *configtree.Node { return n.cfg }

// SetBusConfigPort attaches the adjacent bus's configuration port.
func (n *NI) SetBusConfigPort(p BusConfigPort) { n.busShell = p }

// Table exposes the NI slot table for tests and probes.
func (n *NI) Table() *slots.NITable { return n.table }

// --- IP-side API (called from other components' Eval or from the host
// between steps; effects are two-phase safe: pushes are visible next
// cycle, reads see settled state). A call that leaves a queue mutation
// for Commit wakes the NI and asks for its Commit.

// CanSend reports whether channel ch can accept another word from the IP.
func (n *NI) CanSend(ch int) bool {
	return !n.channels[ch].sendQ.Full()
}

// Send enqueues one word for transmission on channel ch. It returns false
// if the queue is full or the channel is not open. The word becomes
// eligible for injection on the next cycle (two-phase safety).
func (n *NI) Send(ch int, w phit.Word) bool {
	c := n.channels[ch]
	if c.flags&cfgproto.FlagOpen == 0 || c.sendQ.Full() {
		n.rejected++
		return false
	}
	c.sendQ.Stage(queuedWord{word: w, tag: phit.Tag{Channel: n.id<<8 | ch, Seq: c.seq, SubmitCycle: n.sim.EvalCycle()}})
	c.seq++
	n.hostCall(ch)
	return true
}

// RecvLen returns the number of words available to the IP on channel ch.
func (n *NI) RecvLen(ch int) int { return n.channels[ch].recvQ.Len() }

// Recv pops one delivered word from channel ch, returning ok=false when
// the queue is empty. Popping frees buffer space and therefore schedules a
// credit to be returned to the remote source.
func (n *NI) Recv(ch int) (Delivery, bool) {
	c := n.channels[ch]
	if c.recvQ.Len() == 0 {
		return Delivery{}, false
	}
	d := c.recvQ.Take()
	c.pendDelivered++
	n.hostCall(ch)
	return d, true
}

// WatchRecv registers a as a consumer of channel ch: the NI wakes it in
// the Commit that makes a word visible in the channel's receive queue,
// so a consumer may sleep while RecvLen is 0. Every consumer of a
// channel wakes; they compete for its words in their evaluation order.
func (n *NI) WatchRecv(ch int, a sim.Activity) {
	c := n.channels[ch]
	c.consumers = append(c.consumers, a)
}

// UnwatchRecv drops a consumer registered with WatchRecv.
func (n *NI) UnwatchRecv(ch int, a sim.Activity) {
	c := n.channels[ch]
	c.consumers = slices.DeleteFunc(c.consumers, func(b sim.Activity) bool { return b == a })
}

// hostCall notes an IP-side queue mutation on channel ch: Commit must
// apply it this cycle even if the NI was asleep.
func (n *NI) hostCall(ch int) {
	n.host |= 1 << ch
	n.act.Wake()
	n.act.CommitNext()
}

// SendQueueLen returns the occupancy of channel ch's send queue.
func (n *NI) SendQueueLen(ch int) int { return n.channels[ch].sendQ.Used() }

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

// FlaggedChannels returns the set of channels (bit ch) whose flags were
// ever written non-zero: every other channel still has flags 0.
func (n *NI) FlaggedChannels() uint64 { return n.flagged }

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
// is busy, no IP-side call is pending, it drove the idle flit and every
// register it read this cycle was idle: its next Eval+Commit would
// change nothing, even with channels open, because an open channel with
// no word and no credit to return drives nothing. A change on its input
// wire, an IP-side Send or Recv, or a configuration write that makes a
// channel busy wakes it.
func (n *NI) Eval(cycle uint64) {
	// Stage 1: latch the input wire if it changed (unchanged, it still
	// holds what the register holds); in is the value latched last
	// cycle, which the receive path consumes.
	in := n.inReg
	inFlit := in
	if n.act.Changed() != 0 {
		inFlit = n.inWire.Get()
		n.inReg = inFlit
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
			if ch.sendQ.Len() > 0 && (ch.flags&cfgproto.FlagMulticast != 0 || ch.credit > 0) {
				qw := ch.sendQ.Peek()
				n.popped = ch
				n.act.CommitNext()
				if ch.flags&cfgproto.FlagMulticast == 0 {
					ch.credit--
				}
				out.Valid = true
				out.Data = qw.word
				out.Ref = n.sim.Stamp(n.act, qw.tag)
				n.injected++
				ch.txWords++
			} else if ch.sendQ.Len() > 0 {
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
			if !ch.recvQ.Full() {
				ch.recvQ.Stage(Delivery{Word: in.Data, Tag: n.sim.Provenance(in.Ref), Cycle: c1})
				n.pushed = ch
				n.act.CommitNext()
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

	if n.work == 0 && n.host == 0 && n.outIdle && inFlit.IsIdle() && in.IsIdle() {
		n.act.Sleep()
	}
}

// track re-derives c.busy after a change to c. A partial rxCreditAccum
// does not count: it moves only when a credit word arrives, which wakes
// the NI.
func (n *NI) track(c *channel) {
	busy := c.flags&cfgproto.FlagOpen != 0 && (c.sendQ.Len() > 0 || c.delivered != 0 || c.txCreditLatch != 0)
	if busy != c.busy {
		c.busy = busy
		if busy {
			n.work++
		} else {
			n.work--
		}
	}
}

// configured re-derives c.busy after a configuration write and wakes
// the NI when the channel has work (credit matters only to a busy one).
func (n *NI) configured(c *channel) {
	n.track(c)
	if c.busy {
		n.act.Wake()
	}
}

// Commit implements sim.Committer: apply queue mutations decided in Eval
// (network-side pops and pushes) and by the IP-side API during other
// components' Eval (pending sends, consumed deliveries), on the channels
// they touched only.
func (n *NI) Commit() {
	if c := n.popped; c != nil {
		c.sendQ.Pop()
		n.track(c)
		n.popped = nil
	}
	if c := n.pushed; c != nil {
		c.recvQ.Commit()
		for _, a := range c.consumers {
			a.Wake()
		}
		n.pushed = nil
	}
	for ; n.host != 0; n.host &= n.host - 1 {
		c := n.channels[bits.TrailingZeros64(n.host)]
		c.sendQ.Commit()
		c.recvQ.Commit()
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

// WriteReg lands after the NI's datapath stage, maybe after it slept.
func (ns *niSink) WriteReg(reg, value uint8) {
	n := (*NI)(ns)
	ch := cfgproto.RegChannel(reg)
	switch cfgproto.RegClass(reg) {
	case cfgproto.RegFlags:
		if ch < len(n.channels) {
			n.channels[ch].flags = value
			if value != 0 {
				n.flagged |= 1 << ch
			}
			n.configured(n.channels[ch])
		}
	case cfgproto.RegCredit:
		if ch < len(n.channels) {
			n.channels[ch].credit = int(value)
		}
	case cfgproto.RegDelivered:
		if ch < len(n.channels) {
			n.channels[ch].delivered = int(value)
			n.configured(n.channels[ch])
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
