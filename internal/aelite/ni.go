package aelite

import (
	"fmt"

	"daelite/internal/phit"
	"daelite/internal/sim"
	"daelite/internal/slots"
)

// SlotWords is the aelite slot length: 3 words, the first of which is a
// header when a new packet starts. The paper notes aelite cannot shrink
// its slots the way daelite can because the header overhead would grow.
const SlotWords = 3

// Params holds aelite NI parameters.
type Params struct {
	Wheel          int
	NumChannels    int
	SendQueueDepth int
	RecvQueueDepth int
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Wheel <= 0 || p.Wheel > slots.MaxTableSize {
		return fmt.Errorf("aelite: wheel %d out of range", p.Wheel)
	}
	if p.NumChannels <= 0 || p.NumChannels > MaxQueue+1 {
		return fmt.Errorf("aelite: %d channels out of range 1..%d", p.NumChannels, MaxQueue+1)
	}
	if p.SendQueueDepth <= 0 || p.RecvQueueDepth <= 0 {
		return fmt.Errorf("aelite: queue depths must be positive")
	}
	return nil
}

// Register select classes for configuration writes addressed to aelite
// NIs (carried as messages over the network itself).
const (
	// RegSlotEntry writes slot table entry <index> = channel (value
	// 0xFFFFFFFF clears).
	RegSlotEntry uint32 = iota << 24
	// RegRoute writes a channel's source route.
	RegRoute
	// RegRemoteQueue writes the destination queue index used in
	// headers.
	RegRemoteQueue
	// RegCredit initializes a channel's credit counter.
	RegCredit
	// RegFlags writes channel flags (bit 0: open).
	RegFlags
)

// FlagOpen marks a channel configured.
const FlagOpen uint32 = 1

// ClearEntry is the RegSlotEntry value meaning "slot idle".
const ClearEntry uint32 = 0xFFFFFFFF

// RegAddr builds a register address: class | index.
func RegAddr(class uint32, index int) uint32 { return class | uint32(index&0xFFFFFF) }

// Delivery is one word handed to the IP side.
type Delivery struct {
	Word  phit.Word
	Tag   phit.Tag
	Cycle uint64
}

type channel struct {
	flags       uint32
	route       uint32
	remoteQueue int

	sendQ    []phit.Word
	pendSend []phit.Word
	recvQ    []Delivery
	recvCur  int

	credit        int
	delivered     int
	pendDelivered int
	seq           uint64
}

// NI is an aelite network interface: the only place slot tables exist in
// aelite. Departures are governed by the TDM table; arrivals are steered
// by the queue field of packet headers.
type NI struct {
	name   string
	id     int
	params Params

	inWire  *sim.Reg[phit.Flit]
	inReg   *sim.Reg[phit.Flit]
	outWire *sim.Reg[phit.Flit]

	table    []int // slot -> channel, -1 idle
	channels []*channel

	// TX packet state.
	txPayloadLeft int // payload words still to send in the open packet
	txSpanLeft    int // word positions left in the packet's slot span
	txChannel     int

	// RX packet state.
	rxPayloadLeft int
	rxQueue       int
	pendRecv      []pendingDelivery

	// configSink, when set, receives (reg, value) register writes
	// arriving on the config channel and the NI acknowledges each
	// write. Used by the network-carried configuration protocol.
	configChannel int
	configApply   func(reg, value uint32)
	cfgWords      []uint32

	// Statistics for the header-overhead experiment.
	headerWords  uint64
	payloadWords uint64
	injected     uint64
	deliveredCnt uint64
	dropped      uint64

	// sim holds the provenance of injected payload words, stamped
	// under act.
	sim *sim.Simulator
	act sim.Activity
}

// NewNI creates an aelite NI.
func NewNI(s *sim.Simulator, name string, id int, params Params) (*NI, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := &NI{
		name:          name,
		id:            id,
		params:        params,
		inReg:         sim.NewReg(s, phit.Idle()),
		outWire:       sim.NewReg(s, phit.Idle()),
		table:         make([]int, params.Wheel),
		channels:      make([]*channel, params.NumChannels),
		txChannel:     -1,
		rxQueue:       -1,
		configChannel: -1,
	}
	for i := range n.table {
		n.table[i] = -1
	}
	for i := range n.channels {
		n.channels[i] = &channel{remoteQueue: -1}
	}
	n.sim, n.act = s, s.Add(n)
	return n, nil
}

// Name implements sim.Component.
func (n *NI) Name() string { return n.name }

// ID returns the element ID.
func (n *NI) ID() int { return n.id }

// ConnectInput attaches the router->NI wire.
func (n *NI) ConnectInput(w *sim.Reg[phit.Flit]) { n.inWire = w }

// OutputWire returns the NI->router wire.
func (n *NI) OutputWire() *sim.Reg[phit.Flit] { return n.outWire }

// EnableConfigChannel designates ch as the configuration channel of a
// target NI: arriving (reg, value) word pairs are applied via apply, and
// each pair is acknowledged with a one-word message back on the same
// channel. Configuration traffic is self-paced (one operation in flight),
// so the channel gets a standing credit allowance.
func (n *NI) EnableConfigChannel(ch int, apply func(reg, value uint32)) {
	n.configChannel = ch
	n.configApply = apply
	n.channels[ch].flags |= FlagOpen
	n.channels[ch].credit = n.params.RecvQueueDepth
}

// OpenConfigInitiator arms ch as the host-side configuration channel:
// open with standing credit, but without the target-side sink (the
// configuration unit consumes the acknowledgements itself).
func (n *NI) OpenConfigInitiator(ch int) {
	n.channels[ch].flags |= FlagOpen
	n.channels[ch].credit = n.params.RecvQueueDepth
}

// BootConfig applies a register write directly, modelling boot-time
// initialization (the pre-configured configuration connections real
// aelite also requires).
func (n *NI) BootConfig(reg, value uint32) { n.applyReg(reg, value) }

func (n *NI) applyReg(reg, value uint32) {
	class := reg & 0xFF000000
	idx := int(reg & 0xFFFFFF)
	switch class {
	case RegSlotEntry:
		if idx < len(n.table) {
			if value == ClearEntry {
				n.table[idx] = -1
			} else if int(value) < len(n.channels) {
				n.table[idx] = int(value)
			}
		}
	case RegRoute:
		if idx < len(n.channels) {
			n.channels[idx].route = value
		}
	case RegRemoteQueue:
		if idx < len(n.channels) {
			n.channels[idx].remoteQueue = int(value)
		}
	case RegCredit:
		if idx < len(n.channels) {
			n.channels[idx].credit = int(value)
		}
	case RegFlags:
		if idx < len(n.channels) {
			n.channels[idx].flags = value
		}
	}
}

// Send enqueues a word on channel ch (IP side, two-phase safe).
func (n *NI) Send(ch int, w phit.Word) bool {
	c := n.channels[ch]
	if c.flags&FlagOpen == 0 || len(c.sendQ)+len(c.pendSend) >= n.params.SendQueueDepth {
		return false
	}
	c.pendSend = append(c.pendSend, w)
	return true
}

// CanSend reports send-queue space on ch.
func (n *NI) CanSend(ch int) bool {
	c := n.channels[ch]
	return len(c.sendQ)+len(c.pendSend) < n.params.SendQueueDepth
}

// RecvLen returns words available on ch.
func (n *NI) RecvLen(ch int) int {
	c := n.channels[ch]
	return len(c.recvQ) - c.recvCur
}

// Recv pops one delivered word from ch.
func (n *NI) Recv(ch int) (Delivery, bool) {
	c := n.channels[ch]
	if c.recvCur >= len(c.recvQ) {
		return Delivery{}, false
	}
	d := c.recvQ[c.recvCur]
	c.recvCur++
	c.pendDelivered++
	return d, true
}

// Credit returns the source-side credit counter of ch.
func (n *NI) Credit(ch int) int { return n.channels[ch].credit }

// SetRoute writes a channel's route register locally (host-side use by
// the configuration unit, which sits next to its own NI).
func (n *NI) SetRoute(ch int, route uint32, remoteQueue int) {
	n.channels[ch].route = route
	n.channels[ch].remoteQueue = remoteQueue
}

// Stats returns header words, payload words, injected and delivered word
// counts.
func (n *NI) Stats() (header, payload, injected, delivered uint64) {
	return n.headerWords, n.payloadWords, n.injected, n.deliveredCnt
}

// Dropped returns words dropped at full receive queues (zero under
// correct credit configuration).
func (n *NI) Dropped() uint64 { return n.dropped }

// spanSlots counts how many consecutive slots starting at s belong to
// channel ch (capped at 3, the paper's maximum packet length).
func (n *NI) spanSlots(s, ch int) int {
	k := 0
	for k < 3 && n.table[(s+k)%n.params.Wheel] == ch {
		k++
	}
	return k
}

// Eval implements sim.Component.
func (n *NI) Eval(cycle uint64) {
	var inFlit phit.Flit
	if n.inWire != nil {
		inFlit = n.inWire.Get()
	}
	n.inReg.Set(inFlit)

	c1 := cycle + 1
	slot := slots.SlotOfCycle(c1, SlotWords, n.params.Wheel)
	wordIdx := int(c1 % SlotWords)

	// ---- Transmit path ----
	out := phit.Idle()
	ch := n.table[slot]
	switch {
	case n.txSpanLeft > 0 && n.txChannel == ch && ch >= 0:
		// Continue the open packet.
		c := n.channels[ch]
		if n.txPayloadLeft > 0 && len(c.sendQ) > 0 {
			out.Valid = true
			out.Data = c.sendQ[0]
			c.sendQ = c.sendQ[1:]
			out.Ref = n.sim.Stamp(n.act, phit.Tag{Channel: n.id<<8 | ch, Seq: c.seq})
			c.seq++
			n.txPayloadLeft--
			n.payloadWords++
			n.injected++
		}
		n.txSpanLeft--
	case ch >= 0 && wordIdx == 0:
		// A new packet may start only on a slot boundary.
		c := n.channels[ch]
		if c.flags&FlagOpen != 0 {
			span := n.spanSlots(slot, ch)
			capacity := span*SlotWords - 1
			if capacity > MaxPayload {
				capacity = MaxPayload
			}
			length := len(c.sendQ)
			if length > capacity {
				length = capacity
			}
			if length > c.credit {
				length = c.credit
			}
			cr := c.delivered
			if cr > MaxHeaderCredit {
				cr = MaxHeaderCredit
			}
			if length > 0 || cr > 0 {
				h := Header{Route: c.route, Queue: c.remoteQueue, Length: length, Credit: cr}
				enc, err := h.Encode()
				if err == nil {
					out.Valid = true
					out.Data = phit.Word(enc)
					n.headerWords++
					c.delivered -= cr
					c.credit -= length
					n.txPayloadLeft = length
					n.txSpanLeft = span*SlotWords - 1
					n.txChannel = ch
				}
			}
		}
	default:
		n.txSpanLeft = 0
	}
	n.outWire.Set(out)

	// ---- Receive path ----
	in := n.inReg.Get()
	if in.Valid {
		if n.rxPayloadLeft == 0 {
			h := DecodeHeader(uint32(in.Data))
			n.rxQueue = h.Queue
			n.rxPayloadLeft = h.Length
			if h.Queue >= 0 && h.Queue < len(n.channels) {
				n.channels[h.Queue].credit += h.Credit
			}
		} else {
			n.rxPayloadLeft--
			q := n.rxQueue
			if q >= 0 && q < len(n.channels) {
				c := n.channels[q]
				if len(c.recvQ)+n.pendingFor(q) < n.params.RecvQueueDepth {
					n.pendRecv = append(n.pendRecv, pendingDelivery{
						ch: q,
						d:  Delivery{Word: in.Data, Tag: n.sim.Provenance(in.Ref), Cycle: c1},
					})
					n.deliveredCnt++
				} else {
					n.dropped++
				}
			}
		}
	}

	// ---- Configuration sink ----
	if n.configChannel >= 0 {
		c := n.channels[n.configChannel]
		for {
			d, ok := n.Recv(n.configChannel)
			if !ok {
				break
			}
			n.cfgWords = append(n.cfgWords, uint32(d.Word))
			if len(n.cfgWords) == 2 {
				n.applyReg(n.cfgWords[0], n.cfgWords[1])
				n.cfgWords = n.cfgWords[:0]
				// Acknowledge with a one-word message.
				c.pendSend = append(c.pendSend, phit.Word(0xACED))
			}
		}
	}
}

// pendingDelivery queues a received word until Commit.
type pendingDelivery struct {
	ch int
	d  Delivery
}

func (n *NI) pendingFor(ch int) int {
	cnt := 0
	for _, p := range n.pendRecv {
		if p.ch == ch {
			cnt++
		}
	}
	return cnt
}

// Commit implements sim.Component.
func (n *NI) Commit() {
	for _, p := range n.pendRecv {
		c := n.channels[p.ch]
		c.recvQ = append(c.recvQ, p.d)
	}
	n.pendRecv = n.pendRecv[:0]
	for _, c := range n.channels {
		if len(c.pendSend) > 0 {
			c.sendQ = append(c.sendQ, c.pendSend...)
			c.pendSend = c.pendSend[:0]
		}
		if c.recvCur > 0 {
			c.recvQ = c.recvQ[c.recvCur:]
			c.recvCur = 0
		}
		if c.pendDelivered > 0 {
			c.delivered += c.pendDelivered
			c.pendDelivered = 0
		}
	}
}
