// Package configtree implements the host side of the daelite configuration
// infrastructure: the configuration module through which the host IP has
// exclusive control over the dedicated broadcast configuration network.
//
// The module accepts normal (32-bit) write operations from the host,
// serializes them into 7-bit configuration words transmitted one per cycle
// over the tree's forward links, enforces a cool-down period after each
// complete packet during which no new packets are accepted (giving routers
// and NIs time to internally update their slot tables), and collects
// responses converging on the reverse path. Only one read request may be
// outstanding at a time — the reverse path has no arbitration.
//
// Since every element's decoder walks the same states, shifted by its
// depth, the module decodes its tree's stream once and applies each
// effect to the addressed element (a Node) at that element's cycle.
package configtree

import (
	"fmt"
	"slices"

	"daelite/internal/cfgproto"
	"daelite/internal/phit"
	"daelite/internal/sim"
)

// Params configures the module.
type Params struct {
	// Cooldown is the number of idle cycles enforced after the last
	// word of each packet before the next packet may start.
	Cooldown int
	// QueueDepth bounds the number of serialized words buffered in the
	// module (the host observes back-pressure through Busy).
	QueueDepth int
	// ReadTimeout arms the read-transaction watchdog: if no response
	// arrives within this many cycles after the read packet's last word
	// left the module, the transaction times out and is retried (up to
	// ReadRetries times) or aborted. 0 disables the watchdog — the
	// pre-fault-tolerance behaviour of waiting forever.
	ReadTimeout uint64
	// ReadRetries is the number of automatic retransmissions after a
	// read timeout. Retransmissions go through the normal staging queue,
	// so the cool-down and one-outstanding-request invariants hold
	// throughout.
	ReadRetries int
	// ReadBackoff multiplies the timeout after each retry (exponential
	// backoff); values below 2 are treated as 2.
	ReadBackoff uint64
}

// DefaultParams returns the parameters used throughout the evaluation: a
// cool-down of 4 cycles and a generous staging queue.
func DefaultParams() Params {
	return Params{Cooldown: 4, QueueDepth: 256}
}

// Module is the host configuration module, a sim.Component driving the
// root of the configuration tree.
type Module struct {
	name   string
	params Params

	// fwd is the root forward wire. The module reads it back after the
	// latch, so what a fault injector left on it is what the tree
	// broadcasts; dec decodes it for every element on the tree (nil
	// until one attaches). nodes are the elements, by decoder member
	// index, below root; tail is how many cycles a word on the root wire
	// keeps the tree busy and drain the cycle the last one read leaves
	// it. effects and resps are in flight down and up, in due order.
	fwd     *sim.Reg[phit.ConfigWord]
	dec     *cfgproto.Decoder
	root    Node
	nodes   []*Node
	tail    int
	drain   uint64
	effects []inflight
	resps   []inflight
	s       *sim.Simulator

	// queue holds, from head on, the words awaiting transmission: the
	// committed ones up to ready, then the packets submitted this cycle,
	// which pending describes and Commit folds in for two-phase safety.
	// bounds holds, from bhead on, the cumulative word counts (since the
	// last rebase) at which committed packets end, so the cool-down can
	// be inserted between packets. Commit moves both to the front of
	// their buffers, which are reused.
	queue       []phit.ConfigWord
	head, ready int
	bounds      []packetBound
	bhead       int
	sent        int // words consumed since the last boundary rebase
	cooldown    int // cycles of cool-down remaining
	pending     []packetBound

	// read transaction state
	readPending  bool
	readValue    uint8
	readValid    bool
	readAborted  bool
	packetsSent  uint64
	wordsSent    uint64
	lastPktCycle uint64

	// read watchdog state: the words of the outstanding read (kept for
	// retransmission), the cycle at which it times out (0 = not armed),
	// the current timeout after backoff, and retries remaining.
	readWords    []phit.ConfigWord
	readDeadline uint64
	readTimeout  uint64
	retriesLeft  int

	readTimeouts uint64
	readRetries  uint64

	// act is the kernel handle the module sleeps, wakes and asks for
	// its Commit through.
	act sim.Activity
}

// packetBound marks where a packet ends in the staged word stream; in
// pending, count is the packet's length.
type packetBound struct {
	count  int // cumulative words (since last rebase) at packet end
	isRead bool
}

// New creates a configuration module.
func New(s *sim.Simulator, name string, params Params) *Module {
	if params.Cooldown < 0 {
		params.Cooldown = 0
	}
	if params.QueueDepth <= 0 {
		params.QueueDepth = 256
	}
	m := &Module{
		name:   name,
		params: params,
		fwd:    sim.NewReg(s, phit.ConfigWord{}),
		s:      s,
	}
	m.root = Node{mod: m, fwd: 1 - hopStages} // the root element decodes a cycle after the root wire
	m.act = s.Add(m)
	return m
}

// Name implements sim.Component.
func (m *Module) Name() string { return m.name }

// ForwardWire returns the root of the tree; connect it to the root
// element's configuration input.
func (m *Module) ForwardWire() *Node { return &m.root }

// RootWire returns the root forward wire itself, for tracing and for the
// fault injector that corrupts words before the broadcast.
func (m *Module) RootWire() *sim.Reg[phit.ConfigWord] { return m.fwd }

// ConnectResponse connects a root element's reverse path to the module;
// the responses of the elements below it converge on the same path.
func (m *Module) ConnectResponse(root *Node) { root.toModule = true }

// RootResponse returns the word on the root reverse wire this cycle: the
// response the module collects at its next Eval.
func (m *Module) RootResponse() phit.Response {
	var r phit.Response
	now := m.s.Cycle()
	for _, t := range m.resps {
		if t.due == now {
			r = phit.Merge(r, t.resp)
		}
	}
	return r
}

// QueueLen reports the words currently staged in the module — committed
// queue plus pending submissions — i.e. the backlog a freshly submitted
// packet waits behind.
func (m *Module) QueueLen() int { return len(m.queue) - m.head }

// SubmitPacket queues a complete configuration packet for transmission,
// starting no earlier than the next cycle, and wakes the module. It fails
// when the staging queue would overflow or when a read is already
// outstanding (including one submitted this cycle) and the packet is
// another read.
func (m *Module) SubmitPacket(words []phit.ConfigWord) error {
	if len(words) == 0 {
		return fmt.Errorf("configtree: empty packet")
	}
	staged := m.QueueLen()
	readStaged := m.readPending
	for _, p := range m.pending {
		readStaged = readStaged || p.isRead
	}
	if staged+len(words) > m.params.QueueDepth {
		return fmt.Errorf("configtree: staging queue full (%d+%d > %d)", staged, len(words), m.params.QueueDepth)
	}
	op, err := cfgproto.PacketOp(words)
	if err != nil {
		return err
	}
	isRead := op == cfgproto.OpReadReg
	if isRead && readStaged {
		return fmt.Errorf("configtree: a read is already outstanding")
	}
	if isRead {
		m.readAborted = false
		m.readWords = append(m.readWords[:0], words...)
		m.readTimeout = m.params.ReadTimeout
		m.retriesLeft = m.params.ReadRetries
		m.readDeadline = 0
	}
	m.stage(words, isRead)
	m.act.Wake()
	return nil
}

// SubmitHostWords accepts packed 32-bit host words (the paper's "normal
// write operations") holding exactly count 7-bit symbols, which must form
// one complete packet.
func (m *Module) SubmitHostWords(packed []uint32, count int) error {
	words, err := cfgproto.Unpack32(packed, count)
	if err != nil {
		return err
	}
	return m.SubmitPacket(words)
}

// Busy reports whether the module still has words to send (including
// packets submitted this cycle) or is in cool-down.
func (m *Module) Busy() bool {
	return m.QueueLen() > 0 || m.cooldown > 0
}

// ReadOutstanding reports whether a read response is still awaited.
func (m *Module) ReadOutstanding() bool { return m.readPending }

// ReadValue returns the last read response, valid after ReadOutstanding
// becomes false.
func (m *Module) ReadValue() (uint8, bool) { return m.readValue, m.readValid }

// ReadAborted reports whether the most recent read transaction was given
// up on after exhausting its retries. Cleared by the next read submission.
func (m *Module) ReadAborted() bool { return m.readAborted }

// ReadFaultStats returns the number of read-transaction timeouts observed
// and retransmissions issued by the watchdog.
func (m *Module) ReadFaultStats() (timeouts, retries uint64) {
	return m.readTimeouts, m.readRetries
}

// Stats returns packets and words transmitted so far.
func (m *Module) Stats() (packets, words uint64) { return m.packetsSent, m.wordsSent }

// LastPacketCycle returns the cycle at which the final word of the most
// recent packet was driven onto the tree.
func (m *Module) LastPacketCycle() uint64 { return m.lastPktCycle }

// Eval implements sim.Component. The module goes to sleep when this
// Eval drove the idle word, nothing is staged or pending, the cool-down
// is over, no read is outstanding, and the tree is quiet: no effect or
// response in flight, the decoder between packets and every word already
// across the deepest element. Its next Eval would only drive the idle
// word again. SubmitPacket wakes it.
func (m *Module) Eval(cycle uint64) {
	// Collect a response if one arrives.
	r := m.RootResponse()
	k := 0
	for k < len(m.resps) && m.resps[k].due <= cycle {
		k++
	}
	m.resps = slices.Delete(m.resps, 0, k)
	if r.Valid && m.readPending {
		m.readPending = false
		m.readDeadline = 0
		m.readValue = r.Bits
		m.readValid = true
	}

	// Read watchdog: the armed deadline passes with no response, so the
	// transaction is retried through the normal staging queue (keeping
	// the cool-down and one-outstanding invariants) or abandoned.
	if m.readPending && m.readDeadline != 0 && cycle >= m.readDeadline {
		m.readDeadline = 0
		m.readTimeouts++
		if m.retriesLeft > 0 {
			m.retriesLeft--
			m.readRetries++
			backoff := m.params.ReadBackoff
			if backoff < 2 {
				backoff = 2
			}
			m.readTimeout *= backoff
			m.stage(m.readWords, true)
		} else {
			m.readPending = false
			m.readValid = false
			m.readAborted = true
		}
	}

	m.broadcast(cycle)

	switch {
	case m.cooldown > 0:
		m.cooldown--
		m.fwd.Set(phit.ConfigWord{})
	case m.head == m.ready:
		m.fwd.Set(phit.ConfigWord{})
	default:
		// The word just driven must be followed by an idle one, even
		// with a zero cool-down, so the module stays awake.
		m.send(cycle)
		return
	}
	if !m.Busy() && !m.readPending && len(m.effects) == 0 && len(m.resps) == 0 &&
		(m.dec == nil || !m.dec.Busy()) && cycle >= m.drain {
		m.act.Sleep()
	}
}

// send drives the next staged word onto the tree.
func (m *Module) send(cycle uint64) {
	w := m.queue[m.head]
	m.head++
	m.sent++
	m.wordsSent++
	m.fwd.Set(w)
	m.act.CommitNext() // to compact the consumed words
	// Crossing a packet boundary starts the cool-down.
	if m.bhead < len(m.bounds) && m.sent == m.bounds[m.bhead].count {
		b := m.bounds[m.bhead]
		m.cooldown = m.params.Cooldown
		m.packetsSent++
		m.lastPktCycle = cycle + 1 // the word appears on the wire at cycle+1
		if b.isRead && m.params.ReadTimeout > 0 {
			m.readDeadline = cycle + 1 + m.readTimeout
		}
		// Rebase boundary bookkeeping.
		m.bhead++
		for i := m.bhead; i < len(m.bounds); i++ {
			m.bounds[i].count -= b.count
		}
		m.sent = 0
	}
}

// stage appends a packet past the committed words, for Commit to fold in.
func (m *Module) stage(words []phit.ConfigWord, isRead bool) {
	m.queue = append(m.queue, words...)
	m.pending = append(m.pending, packetBound{count: len(words), isRead: isRead})
	m.act.CommitNext()
}

// Commit implements sim.Committer: fold in packets submitted during Eval
// and compact the words sent; stage and send ask for it.
// A buffer at least half consumed has what is left moved to its front,
// so moving costs at most one entry per entry consumed.
func (m *Module) Commit() {
	if m.head > 0 && 2*m.head >= len(m.queue) {
		m.queue = m.queue[:copy(m.queue, m.queue[m.head:])]
		m.ready -= m.head
		m.head = 0
	}
	if m.bhead > 0 && 2*m.bhead >= len(m.bounds) {
		m.bounds = m.bounds[:copy(m.bounds, m.bounds[m.bhead:])]
		m.bhead = 0
	}
	for _, p := range m.pending {
		m.ready += p.count
		m.bounds = append(m.bounds, packetBound{count: m.sent + m.ready - m.head, isRead: p.isRead})
		if p.isRead {
			m.readPending = true
			m.readValid = false
		}
	}
	m.pending = m.pending[:0]
}

// hopStages is the number of register stages a tree hop adds in each
// direction: the parent's output wire and the child's input stage going
// down, the child's merge stage and its reverse wire going up.
const hopStages = 2

// Node is a point of a region's tree: the module's root output
// (Module.ForwardWire) or an attached element, whose children attach
// below it. Its delays are those of the wiring that reaches it: a word on
// the root wire takes fwd cycles to act here, a response made here rev
// cycles to reach the module.
type Node struct {
	mod      *Module
	top      *Node // the root element above (or at) this one
	sink     cfgproto.Sink
	fwd, rev int
	toModule bool // a root element whose reverse path the module collects
}

// Attach puts the element with configuration ID id, whose slot tables
// have the given wheel, on the tree below nd. sink receives the effects
// of the words addressed to it, after the element's datapath stage of
// the cycle in which its own decoder would have applied them; forNI
// selects the NI port-spec layout. The elements of a tree share one
// wheel and have distinct IDs.
func (nd *Node) Attach(id, wheel int, forNI bool, sink cfgproto.Sink) *Node {
	m := nd.mod
	if m.dec == nil {
		m.dec = cfgproto.NewDecoder(wheel)
	}
	m.dec.Add(id, forNI)
	c := &Node{mod: m, top: nd.top, sink: sink, fwd: nd.fwd + hopStages, rev: nd.rev + hopStages}
	if nd == &m.root {
		c.top = c
	}
	m.nodes = append(m.nodes, c)
	m.tail = max(m.tail, c.fwd+1)
	return c
}

// inflight is a decoded effect on its way to node's element or, with
// node nil, a read response on its way back to the module.
type inflight struct {
	due  uint64
	node *Node
	eff  cfgproto.Effect
	resp phit.Response
}

// schedule inserts t into q, kept in due order (equal dues in insertion
// order).
func schedule(q []inflight, t inflight) []inflight {
	i := len(q)
	for i > 0 && q[i-1].due > t.due {
		i--
	}
	return slices.Insert(q, i, t)
}

// broadcast applies the effects due this cycle, after every element's
// datapath stage (the module runs after the elements), and decodes the
// word on the root wire into effects due at their elements.
func (m *Module) broadcast(cycle uint64) {
	k := 0
	for ; k < len(m.effects) && m.effects[k].due <= cycle; k++ {
		t := m.effects[k]
		if r := t.eff.Apply(t.node.sink); r.Valid && t.node.top.toModule {
			m.resps = schedule(m.resps, inflight{due: cycle + uint64(t.node.rev), resp: r})
		}
	}
	if k > 0 {
		m.effects = append(m.effects[:0], m.effects[k:]...)
	}
	if w := m.fwd.Get(); w.Valid && m.dec != nil {
		m.drain = cycle + uint64(m.tail)
		if e := m.dec.Feed(w); e.Kind != cfgproto.NoEffect {
			nd := m.nodes[e.Member]
			m.effects = schedule(m.effects, inflight{due: cycle + uint64(nd.fwd), node: nd, eff: e})
		}
	}
}
