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
package configtree

import (
	"fmt"

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

	fwd  *sim.Reg[phit.ConfigWord] // root forward wire (owned)
	resp *sim.Reg[phit.Response]   // root reverse wire (owned by root element)

	// queue holds words awaiting transmission; bounds holds cumulative
	// word counts (since the last rebase) at which packets end, so the
	// cool-down can be inserted between packets. Submissions are staged
	// in pending and folded in at Commit for two-phase safety.
	queue    []phit.ConfigWord
	bounds   []packetBound
	sent     int // words consumed since the last boundary rebase
	cooldown int // cycles of cool-down remaining
	pending  []pendingPacket

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

	// act is the kernel handle the module sleeps and wakes through.
	act sim.Activity
}

// packetBound marks where a packet ends in the staged word stream.
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
	}
	m.act = s.Add(m)
	return m
}

// Name implements sim.Component.
func (m *Module) Name() string { return m.name }

// ForwardWire returns the root forward wire; connect it to the root
// element's configuration input.
func (m *Module) ForwardWire() *sim.Reg[phit.ConfigWord] { return m.fwd }

// ConnectResponse attaches the root element's reverse wire.
func (m *Module) ConnectResponse(w *sim.Reg[phit.Response]) {
	m.resp = w
	w.Wakes(m.act, 0)
}

// QueueLen reports the words currently staged in the module — committed
// queue plus pending submissions — i.e. the backlog a freshly submitted
// packet waits behind.
func (m *Module) QueueLen() int {
	n := len(m.queue)
	for _, p := range m.pending {
		n += len(p.words)
	}
	return n
}

type pendingPacket struct {
	words  []phit.ConfigWord
	isRead bool
}

// SubmitPacket queues a complete configuration packet for transmission,
// starting no earlier than the next cycle, and wakes the module. It fails
// when the staging queue would overflow or when a read is already
// outstanding (including one submitted this cycle) and the packet is
// another read.
func (m *Module) SubmitPacket(words []phit.ConfigWord) error {
	if len(words) == 0 {
		return fmt.Errorf("configtree: empty packet")
	}
	staged := len(m.queue)
	readStaged := m.readPending
	for _, p := range m.pending {
		staged += len(p.words)
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
	cp := make([]phit.ConfigWord, len(words))
	copy(cp, words)
	if isRead {
		m.readAborted = false
		m.readWords = cp
		m.readTimeout = m.params.ReadTimeout
		m.retriesLeft = m.params.ReadRetries
		m.readDeadline = 0
	}
	m.pending = append(m.pending, pendingPacket{words: cp, isRead: isRead})
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
	return len(m.queue) > 0 || m.cooldown > 0 || len(m.pending) > 0
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
// is over and no read is outstanding: its next Eval would only drive the
// idle word again. SubmitPacket and a change on the response wire wake it.
func (m *Module) Eval(cycle uint64) {
	// Collect a response if one arrives.
	if m.resp != nil {
		if r := m.resp.Get(); r.Valid && m.readPending {
			m.readPending = false
			m.readDeadline = 0
			m.readValue = r.Bits
			m.readValid = true
		}
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
			m.pending = append(m.pending, pendingPacket{words: m.readWords, isRead: true})
		} else {
			m.readPending = false
			m.readValid = false
			m.readAborted = true
		}
	}

	switch {
	case m.cooldown > 0:
		m.cooldown--
		m.fwd.Set(phit.ConfigWord{})
	case len(m.queue) == 0:
		m.fwd.Set(phit.ConfigWord{})
	default:
		// The word just driven must be followed by an idle one, even
		// with a zero cool-down, so the module stays awake.
		m.send(cycle)
		return
	}
	if !m.Busy() && !m.readPending {
		m.act.Sleep()
	}
}

// send drives the next staged word onto the tree.
func (m *Module) send(cycle uint64) {
	w := m.queue[0]
	m.queue = m.queue[1:]
	m.sent++
	m.wordsSent++
	m.fwd.Set(w)
	// Crossing a packet boundary starts the cool-down.
	if len(m.bounds) > 0 && m.sent == m.bounds[0].count {
		m.cooldown = m.params.Cooldown
		m.packetsSent++
		m.lastPktCycle = cycle + 1 // the word appears on the wire at cycle+1
		if m.bounds[0].isRead && m.params.ReadTimeout > 0 {
			m.readDeadline = cycle + 1 + m.readTimeout
		}
		// Rebase boundary bookkeeping.
		consumed := m.bounds[0].count
		m.bounds = m.bounds[1:]
		for i := range m.bounds {
			m.bounds[i].count -= consumed
		}
		m.sent = 0
	}
}

// Commit implements sim.Component: fold in packets submitted during Eval.
func (m *Module) Commit() {
	for _, p := range m.pending {
		m.queue = append(m.queue, p.words...)
		m.bounds = append(m.bounds, packetBound{count: m.sent + len(m.queue), isRead: p.isRead})
		if p.isRead {
			m.readPending = true
			m.readValid = false
		}
	}
	m.pending = m.pending[:0]
}
